"""Tests for the network engine: forward ops, backprop vs finite differences, Adam."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stbcid import tensor_nn
from stbcid.classifier import (
    CorruptCheckpointError,
    Model,
    ModelSpec,
    build_cnn2,
    initialize,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
)
from stbcid.dataset import FRAME_LEN
from stbcid.errors import ParameterError, ShapeError
from stbcid.tensor_nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    CONV_BLOCK,
    LAYER_KINDS,
    LAYER_TABLE,
    Conv2D,
    Dropout,
    LayerSpec,
    Network,
    adam_init,
    adam_step,
    batch_cross_entropy,
    grad_check,
    keep_mask,
    random_micro_network,
    trace_shapes,
    weight_shapes,
)


# flatten, then two classes: the tail of most test stacks
HEAD = (LayerSpec("flatten"), LayerSpec("dense", units=2), LayerSpec("softmax"))


# Single-sample, channel-first float64 references that the batched, width-major
# layers are compared with. They share no code with the engine.


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


class TestConv2dForward:
    def test_zero_input_gives_bias(self):
        x = np.zeros((3, 4, 5))
        w = np.ones((2, 3, 2, 2))
        b = np.array([0.5, -1.5])
        out = conv2d_forward(x, w, b)
        np.testing.assert_allclose(out[0], 0.5)
        np.testing.assert_allclose(out[1], -1.5)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 4))
        out = conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_hand_convolution(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        w = np.array([[[[1.0, 1.0]]]])
        out = conv2d_forward(x, w, np.zeros(1))
        np.testing.assert_allclose(out, [[[3.0, 5.0]]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((2, 3, 3)), np.zeros((1, 5, 2, 2)), np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d_forward(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_linearity_without_bias(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 5))
        y = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((3, 2, 2, 3))
        b0 = np.zeros(3)
        lhs = conv2d_forward(1.7 * x - 0.3 * y, w, b0)
        rhs = 1.7 * conv2d_forward(x, w, b0) - 0.3 * conv2d_forward(y, w, b0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestDenseForward:
    def test_zero_input_gives_bias(self):
        b = np.array([1.0, -2.0])
        np.testing.assert_allclose(dense_forward(np.zeros(3), np.zeros((2, 3)), b), b)

    def test_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(dense_forward(x, np.eye(3), np.zeros(3)), x)

    def test_hand_product(self):
        out = dense_forward(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
        np.testing.assert_allclose(out, [3.0, 7.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            dense_forward(np.zeros(3), np.zeros((2, 4)), np.zeros(2))


class TestReluSoftmaxLoss:
    def test_relu_examples(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
        x = np.array([0.5, 3.0])
        np.testing.assert_array_equal(relu(x), x)
        np.testing.assert_array_equal(relu(np.array([-5.0, -0.1])), [0.0, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    def test_relu_idempotent(self, vals):
        x = np.array(vals)
        np.testing.assert_array_equal(relu(relu(x)), relu(x))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-12)

    def test_softmax_closed_form(self):
        np.testing.assert_allclose(softmax(np.array([0.0, np.log(3.0)])), [0.25, 0.75], atol=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.floats(-100, 100))
    @settings(max_examples=50)
    def test_softmax_shift_invariance(self, vals, c):
        x = np.array(vals)
        np.testing.assert_allclose(softmax(x + c), softmax(x), atol=1e-9)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    @example([24.0, -13.0])
    @settings(max_examples=50)
    def test_softmax_simplex(self, vals):
        x = np.array(vals)
        p = softmax(x)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0.0) and np.all(p <= 1.0)
        # 1 - e^-gap rounds to 1.0 in float64 once the gap between the two largest
        # logits exceeds ~36.7, so p < 1 is only representable below that
        top2 = np.sort(x)[-2:]
        if top2[1] - top2[0] <= 36.0:
            assert np.all(p < 1.0)

    def test_cross_entropy_examples(self):
        assert batch_cross_entropy([[0.5, 0.5]], [[1, 0]]) == pytest.approx(np.log(2.0), rel=1e-9)
        assert batch_cross_entropy([[1.0, 0.0]], [[1, 0]]) == pytest.approx(0.0, abs=1e-12)
        assert batch_cross_entropy([[0.25, 0.75]], [[0, 1]]) == pytest.approx(-np.log(0.75),
                                                                              rel=1e-9)

    def test_cross_entropy_clamps_zero(self):
        # ln(1e-12) rather than -inf
        assert batch_cross_entropy([[0.0, 1.0]], [[1, 0]]) == pytest.approx(-np.log(1e-12))

    def test_malformed_onehot_rejected(self):
        with pytest.raises(ParameterError):
            batch_cross_entropy([[0.5, 0.5]], [[1, 1]])
        with pytest.raises(ParameterError):
            batch_cross_entropy([[0.5, 0.5]], [[0.3, 0.7]])

    @pytest.mark.parametrize("probs, onehot", [
        (np.full((3, 2), 0.5), [1, 0]),  # one row would be broadcast over the batch: ln 2
        (np.full((3, 2), 0.5), np.eye(3)),  # numpy would raise its own ValueError
        ([0.5, 0.5], [1, 0]),  # an unbatched row
    ])
    def test_cross_entropy_shapes_must_match(self, probs, onehot):
        with pytest.raises(ShapeError):
            batch_cross_entropy(probs, onehot)


def _single_dense_net(weights, bias):
    net = Network(
        [LayerSpec("dense", units=weights.shape[0]), LayerSpec("softmax")],
        (weights.shape[1],),
        np.random.default_rng(0),
        dtype=np.float64,
    )
    net.layers[0].w[...] = weights
    net.layers[0].b[...] = bias
    return net


class TestBackprop:
    def test_saturated_prediction_zero_gradient(self):
        # logits with huge margin make p == onehot to double precision
        net = _single_dense_net(np.array([[100.0, 0.0], [-100.0, 0.0]]), np.zeros(2))
        _, grads = net.loss_and_grads(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        for g in grads:
            assert np.all(np.abs(g) < 1e-12)

    def test_dense_gradient_closed_form(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        x = rng.standard_normal(3)
        onehot = np.array([0.0, 1.0])
        net = _single_dense_net(w, b)
        loss, grads = net.loss_and_grads(x[None], onehot[None])
        p = softmax(w @ x + b)
        np.testing.assert_allclose(grads[0], np.outer(p - onehot, x), atol=1e-12)
        np.testing.assert_allclose(grads[1], p - onehot, atol=1e-12)
        assert loss == pytest.approx(-np.log(p[1]), rel=1e-12)

    def test_micro_net_matches_finite_differences(self):
        # input 1x2x8 through conv+conv+dense+dense, per the pinned FD oracle
        rng = np.random.default_rng(12)
        specs = [
            LayerSpec("conv2d", filters=3, kernel=(1, 3)), LayerSpec("relu"),
            LayerSpec("conv2d", filters=4, kernel=(2, 2)), LayerSpec("relu"),
            LayerSpec("flatten"), LayerSpec("dense", units=6), LayerSpec("relu"),
            LayerSpec("dense", units=2), LayerSpec("softmax"),
        ]
        net = Network(specs, (1, 2, 8), rng, dtype=np.float64)
        x = rng.standard_normal((1, 2, 8))
        onehot = np.array([1.0, 0.0])
        report = grad_check(net, x, onehot)
        assert report.passed, f"max rel error {report.max_rel_error}"


class TestAdam:
    def test_bit_equal_to_textbook_expression(self):
        rng = np.random.default_rng(6)
        # the long ones end mid-block: 2 blocks + 123 flat, and 300 x 500 = 2 blocks + 18928
        shapes = [(7, 3), (5,), (2 * ADAM_BLOCK + 123,), (300, 500)]
        params = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        ref = [p.copy() for p in params]
        state = adam_init(params, lr=1e-2)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.lr, ADAM_EPS
        for t in range(1, 6):
            grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
            adam_step(params, grads, state)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                ref[i] = ref[i] - lr * (m[i] / (1.0 - b1 ** t)) / (np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
            for p, q, mi, vi, ms, vs in zip(params, ref, m, v, state.m, state.v):
                np.testing.assert_array_equal(p, q)
                np.testing.assert_array_equal(ms, mi)
                np.testing.assert_array_equal(vs, vi)

    def test_peak_memory(self):
        # CNN2's step peaked at 21.5 MB with full-size scratch; block scratch measured 0.53 MB
        model = initialize(build_cnn2(), seed=2)
        params = model.net.parameters()
        grads = [np.ones_like(p) for p in params]
        state = adam_init(params, lr=1e-3)
        tracemalloc.start()
        try:
            adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"adam_step peaked at {peak / 1e6:.2f} MB"

    def test_non_contiguous_parameter_rejected(self):
        params = [np.zeros((4, 3)).T]
        state = adam_init([np.zeros((3, 4))], lr=1e-3)
        with pytest.raises(ShapeError):
            adam_step(params, [np.ones((3, 4))], state)
        assert state.t == 0

    def test_transposed_kernel_updated_in_place(self):
        # a Conv2D kernel is a transposed view of its storage: the update walks that
        # storage and gives the bits of the same step on a C-contiguous copy
        model = initialize(build_cnn2(), seed=3)
        kernel = model.net.parameters()[2]
        assert not kernel.flags.c_contiguous
        grads = [np.random.default_rng(t).standard_normal(kernel.shape).astype(np.float32)
                 for t in range(3)]
        copy = kernel.copy()
        state, ref_state = adam_init([kernel], lr=1e-2), adam_init([copy], lr=1e-2)
        for g in grads:
            in_kernel_order = np.empty_like(kernel)
            in_kernel_order[...] = g
            adam_step([kernel], [in_kernel_order], state)
            adam_step([copy], [g], ref_state)
        assert model.net.layers[5].w.tobytes() == copy.tobytes()  # conv2's own kernel
        assert state.m[0].tobytes() == ref_state.m[0].tobytes()
        assert state.v[0].tobytes() == ref_state.v[0].tobytes()

    @pytest.mark.parametrize("alike", [False, True], ids=["alone", "state-alike"])
    def test_strided_parameter_rejected(self, alike):
        # alike: all four arrays share one memory order but are no dense block
        params, grads = [np.zeros((3, 8))[:, ::2]], [np.ones((3, 8))[:, ::2]]
        state = adam_init(params, lr=1e-3)
        if alike:
            state.m, state.v = [np.zeros((3, 8))[:, ::2]], [np.zeros((3, 8))[:, ::2]]
        with pytest.raises(ShapeError):
            adam_step(params, grads, state)
        assert state.t == 0

    @pytest.mark.parametrize("shape", [(80, 256, 2, 3), (256, 1, 1, 4)], ids=["conv2", "conv1"])
    def test_gradient_in_another_memory_order_rejected(self, shape):
        layer = Conv2D(LayerSpec("conv2d", filters=shape[0], kernel=shape[2:]), shape, None)
        layer.make_grads()
        layer.gw[...], layer.gb[...] = 1.0, 1.0
        state = adam_init(layer.params(), lr=1e-3)
        # conv1's kernel and its zeros_like differ in stride only on axes of length 1
        adam_step(layer.params(), layer.grads(), state)
        with pytest.raises(ShapeError):
            adam_step(layer.params(), [np.ones(shape, dtype=np.float32), layer.gb], state)
        assert state.t == 1

    def test_zero_gradient_fixed_point(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        state = adam_init(params, lr=1e-3)
        adam_step(params, [np.zeros(2), np.zeros((1, 1))], state)
        for p, q in zip(params, before):
            np.testing.assert_array_equal(p, q)
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        params = [np.array([0.0, 0.0])]
        g = np.array([10.0, -0.5])
        state = adam_init(params, lr=1e-3)
        adam_step(params, [g], state)
        # first-step Adam update is -lr * g/|g| up to eps
        np.testing.assert_allclose(params[0], [-1e-3, 1e-3], rtol=1e-6)

    def test_lr_zero_freezes_parameters_but_advances_t(self):
        params = [np.array([1.0])]
        state = adam_init(params, lr=0.0)
        adam_step(params, [np.array([5.0])], state)
        np.testing.assert_array_equal(params[0], [1.0])
        assert state.t == 1

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(2)]
        state = adam_init(params, lr=1e-3)
        with pytest.raises(ShapeError):
            adam_step(params, [np.zeros(3)], state)


class TestGradCheck:
    def test_micro_cnn_within_tolerance(self):
        net, x, onehot = random_micro_network(seed=0)
        report = grad_check(net, x, onehot)
        assert report.passed
        assert report.n_checked + report.n_kink_skipped == sum(
            p.size for p in net.parameters()
        )

    def test_linear_net_near_exact(self):
        # without ReLUs there are no kinks, and the loss is smooth enough that
        # central differences match backprop far inside the 1e-4 contract
        rng = np.random.default_rng(1)
        specs = [LayerSpec("conv2d", filters=4, kernel=(1, 2)),
                 LayerSpec("conv2d", filters=2, kernel=(3, 2)), LayerSpec("flatten"),
                 LayerSpec("dense", units=8), *HEAD[1:]]
        net = Network(specs, (1, 3, 9), rng, dtype=np.float64)
        report = grad_check(net, rng.standard_normal((1, 3, 9)), np.array([0.0, 1.0]))
        assert report.max_rel_error < 1e-7

    def test_relu_kink_excluded_and_reported(self):
        # zero input makes every dense1 pre-activation sit exactly on the kink;
        # perturbing a bias flips the activation pattern one-sided
        net = Network(
            [LayerSpec("dense", units=3), LayerSpec("relu"), *HEAD[1:]],
            (4,),
            np.random.default_rng(2),
            dtype=np.float64,
        )
        x = np.zeros(4)
        report = grad_check(net, x, np.array([1.0, 0.0]))
        assert report.n_kink_skipped >= 3  # at least the three dense1 biases
        bias_tensor_index = 1  # parameters are [w0, b0, w1, b1]
        assert all(pi == bias_tensor_index for pi, _ in report.kink_indices)
        assert report.passed


class TestNetworkValidation:
    def test_must_end_with_softmax(self):
        with pytest.raises(ParameterError):
            Network([LayerSpec("dense", units=2)], (3,), np.random.default_rng(0))

    def test_dense_needs_flat_input(self):
        with pytest.raises(ShapeError):
            Network(
                HEAD[1:], (1, 2, 8), np.random.default_rng(0)
            )

    def test_dropout_spec_validation(self):
        with pytest.raises(ParameterError):
            LayerSpec("dropout", rate=1.0)

    def test_zeropad_changes_width_only(self):
        # the conv after a zeropad applies the padding: through a 1x1 conv the
        # width grows 4 -> 8, the two columns on each side read zeros (bias only)
        # and the middle ones read w*x + b
        rng = np.random.default_rng(0)
        net = Network(
            [LayerSpec("zeropad", pad=2), LayerSpec("conv2d", filters=1, kernel=(1, 1)), *HEAD],
            (1, 2, 4),
            rng,
            dtype=np.float64,
        )
        conv = net.layers[1]
        conv.w[...], conv.b[...] = 3.0, 0.5
        x = rng.integers(-4, 5, size=(1, 4, 2, 1)).astype(np.float64)  # exact arithmetic
        # layers hold activations width-major: [B, W, H, C]
        out = conv.forward(net.layers[0].forward(x))
        assert out.shape == (1, 8, 2, 1)
        assert np.all(out[:, :2] == 0.5) and np.all(out[:, -2:] == 0.5)
        np.testing.assert_array_equal(out[:, 2:-2], 3.0 * x + 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_weight_shapes_match_the_built_arrays(self, seed):
        net, _, _ = random_micro_network(seed)
        built = [layer.w.shape for layer in net.layers if layer.params()]
        assert weight_shapes(net.specs, net.input_shape) == built
        assert [layer.b.shape for layer in net.layers if layer.params()] == [(s[0],) for s in built]

    def test_zeropad_must_precede_a_conv(self, tmp_path):
        specs = [LayerSpec("zeropad", pad=1), LayerSpec("relu"),
                 LayerSpec("conv2d", filters=2, kernel=(1, 2)), *HEAD]
        with pytest.raises(ShapeError):
            trace_shapes(specs, (1, 2, 4))
        with pytest.raises(ShapeError):
            Network(specs, (1, 2, 4), np.random.default_rng(0))
        partial = [LayerSpec("zeropad", pad=1)]
        assert trace_shapes(partial, (1, 2, 4)) == [(1, 2, 6)]
        # a valid checkpoint with the relu moved between the zeropad and the conv
        spec = ModelSpec(layers=(specs[0], specs[2], specs[1], *specs[3:]), input_shape=(1, 2, 4))
        path = tmp_path / "m.stbcnn"
        net = Network(spec.layers, spec.input_shape, np.random.default_rng(0))
        save_checkpoint(Model(spec, net), path)
        conv_desc = struct.pack("<BIIIf", LAYER_KINDS.index("conv2d"), 2, 1, 2, 0.0)
        relu_desc = struct.pack("<BIIIf", LAYER_KINDS.index("relu"), 0, 0, 0, 0.0)
        raw = path.read_bytes()
        assert raw.count(conv_desc + relu_desc) == 1
        path.write_bytes(raw.replace(conv_desc + relu_desc, relu_desc + conv_desc))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_network_without_rng_has_zero_parameters(self):
        spec = build_cnn2()
        net = Network(spec.layers, spec.input_shape, None)
        assert all(not p.any() for p in net.parameters())


def _channel_first_reference(net, x):
    """One [C, H, W] sample through the channel-first functional references (eval mode)."""
    for spec, layer in zip(net.specs, net.layers):
        if spec.kind == "conv2d":
            x = conv2d_forward(x, layer.w, layer.b)
        elif spec.kind == "dense":
            x = dense_forward(x, layer.w, layer.b)
        elif spec.kind == "zeropad":
            x = np.pad(x, ((0, 0), (0, 0), (spec.pad, spec.pad)))
        elif spec.kind == "relu":
            x = relu(x)
        elif spec.kind == "flatten":
            x = x.reshape(-1)
        elif spec.kind == "softmax":
            x = softmax(x)
    return x


class TestWidthMajorEngine:
    def test_cnn2_matches_channel_first_reference(self):
        # pins the flatten order against the stored dense1 layout
        model = initialize(build_cnn2(), seed=3, dtype=np.float64)
        rng = np.random.default_rng(8)
        for p in model.net.parameters():
            if p.ndim == 1:  # non-zero biases, so a misplaced bias shows
                p[...] = 0.1 * rng.standard_normal(p.shape)
        x = rng.standard_normal((3, 1, 2, FRAME_LEN))
        probs = model.net.forward(x)
        for i in range(x.shape[0]):
            ref = _channel_first_reference(model.net, x[i])
            np.testing.assert_allclose(probs[i], ref, rtol=0, atol=1e-9)
            np.testing.assert_allclose(np.log(probs[i]), np.log(ref), rtol=0, atol=1e-9)

    def test_features_then_head_is_the_whole_forward(self):
        # predict_batch runs the stack in these two parts, split after the Flatten
        model = initialize(build_cnn2(), seed=3)
        x = np.random.default_rng(9).standard_normal((4, 1, 2, FRAME_LEN)).astype(np.float32)
        rows = model.net.forward(x, part="features")
        assert rows.shape == (4, 10480) and rows.dtype == np.float32
        np.testing.assert_array_equal(model.net.forward(rows, part="head"), model.net.forward(x))

    @pytest.mark.parametrize("f1, k1, f2, pad, windowed", [
        (3, 3, 3, 1, (True, False)),  # CNN2's choice: window patch, then shifted GEMMs
        (3, 3, 3, 0, (True, False)),  # no padding: every shift reads real columns
        (2, 3, 8, 0, (False, True)),  # shifted first layer; windowed layer with input grad
        # CNN2's pad=2 before a 3-wide kernel, where shift 0 reads only padding at
        # the edges, on each path; the 2-wide second conv's edge columns read padding only
        (3, 3, 3, 2, (True, False)),
        (2, 3, 8, 2, (False, True)),
    ])
    def test_cnn2_kernel_pattern_matches_finite_differences(self, f1, k1, f2, pad, windowed):
        # a 1xk kernel on each row of a C=1, H=2 input, then a full-height 2xk,
        # on a batch, so a shift that strayed into the next element would show
        rng = np.random.default_rng(21)
        specs = [
            LayerSpec("zeropad", pad=pad), LayerSpec("conv2d", filters=f1, kernel=(1, k1)),
            LayerSpec("relu"), LayerSpec("dropout", rate=0.5),
            LayerSpec("zeropad", pad=pad), LayerSpec("conv2d", filters=f2, kernel=(2, 2)),
            LayerSpec("relu"), LayerSpec("flatten"), LayerSpec("dense", units=5), LayerSpec("relu"),
            *HEAD[1:],
        ]
        net = Network(specs, (1, 2, 7), rng, dtype=np.float64)
        convs = [layer for layer, spec in zip(net.layers, specs) if spec.kind == "conv2d"]
        assert tuple(layer._windowed for layer in convs) == windowed
        x = rng.standard_normal((3, 1, 2, 7))
        onehot = np.eye(2)[[0, 1, 1]]
        report = grad_check(net, x, onehot)
        assert report.passed, f"max rel error {report.max_rel_error}"
        assert report.n_checked + report.n_kink_skipped == sum(p.size for p in net.parameters())

    @pytest.mark.parametrize("filters", [2, 16])  # shifted, windowed
    @pytest.mark.parametrize("height", [1, 2])  # 1 or 2 row groups of the 1-high kernels
    def test_kernel_wider_than_input(self, filters, height):
        # 3 zero columns on each side of 2 input columns and a kernel 7 wide:
        # shifts 0 and 6 read only padding for every output column
        rng = np.random.default_rng(5)
        specs = [LayerSpec("conv2d", filters=2, kernel=(1, 1)), LayerSpec("zeropad", pad=3),
                 LayerSpec("conv2d", filters=filters, kernel=(1, 7)), *HEAD]
        net = Network(specs, (1, height, 2), rng, dtype=np.float64)
        x = rng.standard_normal((3, 1, height, 2))
        report = grad_check(net, x, np.eye(2)[[0, 1, 1]])
        assert report.passed, f"max rel error {report.max_rel_error}"
        for i in range(x.shape[0]):
            ref = _channel_first_reference(net, x[i])
            np.testing.assert_allclose(net.forward(x[i:i + 1])[0], ref, rtol=0, atol=1e-12)

    def test_partial_height_kernel_rejected(self):
        specs = [LayerSpec("conv2d", filters=2, kernel=(2, 2)), *HEAD]
        with pytest.raises(ShapeError):
            trace_shapes(specs, (1, 3, 8))
        with pytest.raises(ShapeError):
            Network(specs, (1, 3, 8), np.random.default_rng(0))

    def test_partial_height_checkpoint_rejected(self, tmp_path):
        spec = ModelSpec(
            layers=(LayerSpec("conv2d", filters=2, kernel=(3, 2)), *HEAD),
            input_shape=(1, 3, 8),
        )
        path = tmp_path / "m.stbcnn"
        net = Network(spec.layers, spec.input_shape, np.random.default_rng(0))
        save_checkpoint(Model(spec, net), path)
        conv = LAYER_KINDS.index("conv2d")
        full_height = struct.pack("<BIII", conv, 2, 3, 2)
        raw = path.read_bytes()
        assert raw.count(full_height) == 1
        path.write_bytes(raw.replace(full_height, struct.pack("<BIII", conv, 2, 2, 2)))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)


def _one_gemm_conv(x, weights, bias, pad, grad):
    """A shifted Conv2D's output, gb, input gradient and [B*W*G, kw*F] shifted gradient.

    ``x`` is the width-major [B, W, G, K] input, ``grad`` the [B, OW, G, F] output
    gradient. The output adds the bias, then each shift's columns in order; the
    backward writes each shift's gradient into slot j of a zeroed [B, W, G, kw, F]
    array, so the output and dx = shifted @ weights^T are one GEMM each.
    """
    f, c, kh, kw = weights.shape
    b, w, g, k = x.shape
    ow = w + 2 * pad - kw + 1
    wt = weights.transpose(2, 1, 3, 0).reshape(k, kw * f)
    per_shift = (x.reshape(-1, k) @ wt).reshape(b, w, g, kw, f)
    shifted = np.zeros((b, w, g, kw, f), dtype=x.dtype)
    out = np.empty((b, ow, g, f), dtype=x.dtype)
    out[...] = bias
    for j in range(kw):
        lo, hi = max(0, pad - j), min(ow, w + pad - j)
        if lo < hi:
            out[:, lo:hi] += per_shift[:, lo + j - pad:hi + j - pad, :, j]
            shifted[:, lo + j - pad:hi + j - pad, :, j] = grad[:, lo:hi]
    shifted = shifted.reshape(-1, kw * f)
    return out, grad.sum(axis=(0, 1, 2)), (shifted @ wt.T).reshape(b, w, kh * g, c), shifted


def _chunked_gw(x, shifted, shape):
    """gw as the sum, in chunk order, of one GEMM per 32 batch elements; a GEMM whose
    K rows exceed 400 sums them as their largest multiple of 32, then the rest.

    ``x`` is the [B, W, G, K] input and ``shifted`` the [B*W*G, kw*F] shifted
    gradient; ``shape`` is the weight's [F, C, kh, kw].
    """
    f, c, kh, kw = shape
    b, rows = x.shape[0], x.shape[1] * x.shape[2]
    x = x.reshape(b * rows, -1)
    gwt = np.zeros((x.shape[1], kw * f), dtype=x.dtype)
    for start in range(0, b, 32):
        xc, sc = (a[start * rows:(start + 32) * rows] for a in (x, shifted))
        cut = len(xc) // 32 * 32 if len(xc) > 400 else len(xc)
        term = xc[:cut].T @ sc[:cut]
        if cut < len(xc):
            term += xc[cut:].T @ sc[cut:]
        gwt += term
    return gwt.reshape(kh, c, kw, f).transpose(3, 1, 0, 2)


class TestChunkedConv:
    """A shifted Conv2D runs CONV_BLOCK = 32 elements at a time and sums gw chunk by chunk."""

    # B = 31 and 118 end in a chunk whose K = n*W*G exceeds 400 and is not a multiple
    # of 32, so its GEMM is split; B = 1 and 33 end in one of K <= 400, which is not
    @pytest.mark.parametrize("batch", [1, CONV_BLOCK - 1, CONV_BLOCK, CONV_BLOCK + 1, 118, 128])
    @pytest.mark.parametrize("filters, kernel, channels, height, width, pad, exact", [
        (80, (2, 3), 256, 2, 129, 2, True),  # CNN2's conv2: every column of every slot written
        (64, (1, 5), 64, 2, 40, 1, True),  # pad < kw - 1: each shift slot keeps zero columns
        # a layer this small meets OpenBLAS's small-matrix kernels, which round a
        # one-element chunk's input gradient (B=33) and a 16-column gw differently
        (16, (1, 5), 8, 2, 40, 1, False),
    ], ids=["conv2", "narrow-pad", "tiny"])
    def test_equal_to_one_gemm(self, batch, filters, kernel, channels, height, width, pad, exact):
        # out, gb and dx against one whole-batch GEMM each; gw against _chunked_gw
        rng = np.random.default_rng(batch)
        shape = (filters, channels, *kernel)
        layer = Conv2D(LayerSpec("conv2d", filters=filters, kernel=kernel), shape, rng)
        layer.pad = pad
        layer.b[...] = rng.standard_normal(filters)
        layer.make_grads()
        assert not layer._windowed
        x = rng.standard_normal((batch, width, height, channels)).astype(np.float32)
        out = layer.forward(x.copy(), train=True)
        grad = rng.standard_normal(out.shape).astype(np.float32)
        dx = layer.backward(grad.copy())
        g = height // kernel[0]
        x = x.reshape(batch, width, g, -1)
        want_out, want_gb, want_dx, shifted = _one_gemm_conv(
            x, layer.w, layer.b, pad, grad.reshape(batch, -1, g, filters))
        pairs = ((out.reshape(batch, -1, g, filters), want_out), (layer.gb, want_gb),
                 (dx, want_dx), (layer.gw, _chunked_gw(x, shifted, shape)))
        for got, ref in pairs:
            assert got.dtype == ref.dtype and got.shape == ref.shape
            if exact:
                assert got.tobytes() == ref.tobytes()
            else:  # float32 sums of at most a few thousand terms
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max())


class TestKernelLayout:
    """A Conv2D kernel is stored as the [kh*C, kw*F] matrix its GEMMs read, so no call copies it."""

    @staticmethod
    def _assert_gemm_views(model):
        for layer in model.net.layers:
            if isinstance(layer, Conv2D):
                f, c, kh, kw = layer.w.shape
                for a in (layer.w, *layer.grads()[:1]):
                    assert np.shares_memory(a.transpose(2, 1, 3, 0).reshape(kh * c, kw * f), a)

    def test_initialized_and_loaded_kernels(self, tmp_path):
        model = initialize(build_cnn2(), seed=5)
        self._assert_gemm_views(model)
        path = tmp_path / "m.stbcnn"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        self._assert_gemm_views(loaded)
        for p, q in zip(loaded.net.parameters(), model.net.parameters()):
            assert p.tobytes() == q.tobytes()
        frames = np.random.default_rng(5).standard_normal((4, 1, 2, FRAME_LEN))
        loaded.net.loss_and_grads(frames, np.eye(2)[[0, 1, 1, 0]])
        self._assert_gemm_views(loaded)  # and the gradients


class TestKeepMask:
    """keep_mask: per batch element of n units, at rate 0.5 ceil(n/64) PCG64 words, kept iff bit i
    is 1; else ceil(n/2) words as uint32, kept iff u >= ceil(rate * 2**32)."""

    @pytest.mark.parametrize("rate", [0.5, 0.3])
    @pytest.mark.parametrize("shape", [
        (3, 5, 2, 4),  # 40 units per element: whole words at rate 0.3
        (3, 5, 1, 3),  # 15 per element: the last high half of each element's words unused at 0.3
        (4, 7),  # a dense layer's [B, units], odd
        (1, 1, 1, 1),  # one unit: one word drawn
        (2, 10, 2, 7),  # 140 per element: three words at rate 0.5, the third in part
        (0, 5, 2, 3),  # no batch elements: nothing drawn
    ])
    def test_seed_fixes_mask_and_generator_state(self, rate, shape):
        rng, again = np.random.default_rng(17), np.random.default_rng(17)
        keep = keep_mask(rng, shape, rate)
        np.testing.assert_array_equal(keep, keep_mask(again, shape, rate))
        assert rng.bit_generator.state == again.bit_generator.state
        # the documented draw, element by element in the array's own order
        reference = np.random.default_rng(17).bit_generator
        n = int(np.prod(shape[1:]))
        i = np.arange(n, dtype=np.uint64)
        for element in keep:
            if rate == 0.5:  # bit i of the element's words, little-endian; kept iff 1
                words = reference.random_raw(-(-n // 64))
                want = (words[i // 64] >> i % 64) & 1 == 1
            else:
                u = reference.random_raw((n + 1) // 2).astype("<u8").view("<u4")[:n]
                want = u >= np.ceil(rate * 2**32)
            np.testing.assert_array_equal(element, want.reshape(element.shape))
        assert rng.bit_generator.state == reference.state

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_keep_share_at_drop1_shape(self, rate):
        keep = keep_mask(np.random.default_rng(5), (128, 129, 2, 256), rate)
        p = 1.0 - rate
        sigma = np.sqrt(p * (1.0 - p) / keep.size)
        assert abs(keep.mean() - p) < 4.0 * sigma

    def test_rate_bounds(self):
        assert keep_mask(np.random.default_rng(0), (4, 7, 2, 3), 0.0).all()
        # ceil(rate * 2**32) == 2**32: no uint32 reaches it (nor may it wrap to 0)
        assert not keep_mask(np.random.default_rng(0), (4, 7, 2, 3), np.nextafter(1.0, 0.0)).any()

    @pytest.mark.parametrize("rate", [0.5, 0.3])
    def test_dropout_layer_uses_one_mask_and_exact_scale(self, rate):
        x = np.ones((2, 5, 2, 3), dtype=np.float32)  # width-major [B, W, H, C]
        layer = Dropout(LayerSpec("dropout", rate=rate))
        out = layer.forward(x, train=True, rng=np.random.default_rng(4))
        keep = keep_mask(np.random.default_rng(4), x.shape, rate)
        assert 0 < keep.sum() < keep.size
        scale = np.float32(1.0) / np.float32(1.0 - rate)
        np.testing.assert_array_equal(out, np.where(keep, scale, np.float32(0.0)))
        grad = np.full(x.shape, 3.0, dtype=np.float32)
        np.testing.assert_array_equal(layer.backward(grad),
                                      np.where(keep, np.float32(3.0) * scale, np.float32(0.0)))

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM])
    def test_other_bit_generators_rejected(self, bitgen):
        with pytest.raises(ParameterError):
            keep_mask(np.random.Generator(bitgen(0)), (2, 3), 0.5)
        with pytest.raises(ParameterError):
            Dropout(LayerSpec("dropout", rate=0.5)).forward(
                np.ones((2, 3)), train=True, rng=np.random.Generator(bitgen(0)))


class TestReluDropoutPair:
    """A ReLU directly before a drawing Dropout: the Dropout holds one packed keep & (x > 0) mask."""

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    @pytest.mark.parametrize("shape", [(3, 9, 2, 1), (5, 7)])  # width-major conv, dense
    def test_pair_equals_the_masked_reference(self, rate, shape):
        net = Network([LayerSpec("relu"), LayerSpec("dropout", rate=rate), *HEAD], (1, 2, 9), None)
        pair = net.layers[:2]
        x = np.random.default_rng(6).standard_normal(shape).astype(np.float32)
        rng = np.random.default_rng(4)
        out = x.copy()
        for layer in pair:
            out = layer.forward(out, train=True, rng=rng)
        reference = np.random.default_rng(4)
        both = (x > 0) & keep_mask(reference, shape, rate)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert 0 < both.sum() < (x > 0).sum()  # some positive units dropped
        scale = np.float32(1.0) / np.float32(1.0 - rate)
        assert out.tobytes() == np.where(both, x * scale, np.float32(0.0)).tobytes()
        held = [v for layer in pair for v in vars(layer).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in held) <= -(-x.size // 8)
        grad = np.random.default_rng(7).standard_normal(shape).astype(np.float32)
        back = grad.copy()
        for layer in reversed(pair):
            back = layer.backward(back)
        np.testing.assert_array_equal(back, np.where(both, grad * scale, np.float32(0.0)))
        assert not [v for layer in pair for v in vars(layer).values() if isinstance(v, np.ndarray)]

    @pytest.mark.parametrize("specs, seed", [
        ((LayerSpec("relu"), LayerSpec("dropout", rate=0.5)), None),  # no rng: nothing drawn
        ((LayerSpec("relu"), LayerSpec("dropout", rate=0.0)), 4),  # rate 0: nothing drawn
        ((LayerSpec("dropout", rate=0.5),), 4),  # on its own: negative inputs survive
        ((LayerSpec("relu"),), 4),  # a ReLU with no Dropout after it
    ], ids=["no-rng", "rate-0", "dropout-alone", "relu-alone"])
    def test_layers_outside_a_drawing_pair(self, specs, seed):
        net = Network([*specs, *HEAD], (1, 2, 9), None)
        layers = net.layers[:len(specs)]
        shape = (3, 9, 2, 1)
        data = np.random.default_rng(6)
        x, grad = (data.standard_normal(shape).astype(np.float32) for _ in range(2))
        rng = None if seed is None else np.random.default_rng(seed)
        out = x.copy()
        for layer in layers:
            out = layer.forward(out, train=True, rng=rng)
        held = [v for layer in layers for v in vars(layer).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in held) <= -(-x.size // 8)  # any mask is held packed
        # each layer on its own: the ReLU's mask, then the Dropout's keep bits and scale
        mask = x > 0 if specs[0].kind == "relu" else np.ones(shape, dtype=bool)
        drop = specs[-1]
        reference = None if seed is None else np.random.default_rng(seed)
        scale = np.float32(1.0)
        if drop.kind == "dropout" and drop.rate != 0.0 and reference is not None:
            mask = mask & keep_mask(reference, shape, drop.rate)
            scale = np.float32(1.0) / np.float32(1.0 - drop.rate)
        if rng is not None:
            assert rng.bit_generator.state == reference.bit_generator.state
        np.testing.assert_array_equal(out, np.where(mask, x * scale, np.float32(0.0)))
        back = grad.copy()
        for layer in reversed(layers):
            back = layer.backward(back)
        np.testing.assert_array_equal(back, np.where(mask, grad * scale, np.float32(0.0)))


class TestMaskedSlabs:
    """ReLU and Dropout mask one slab of whole batch elements at a time, as one whole-batch pass."""

    @pytest.mark.parametrize("kinds, rate", [
        (("relu",), None),
        (("dropout",), 0.3), (("relu", "dropout"), 0.3),  # a uint32 per unit
        (("dropout",), 0.5), (("relu", "dropout"), 0.5),  # a bit per unit
    ], ids=["relu", "dropout", "relu-dropout", "dropout-0.5", "relu-dropout-0.5"])
    @pytest.mark.parametrize("shape, slab", [
        ((21, 7), 8),  # odd units per element: 8 elements fill whole bytes
        ((11, 9, 2, 1), 4),  # 18 units, even but not a multiple of 8
        ((5, 8, 2, 1), 2),  # 16 units, whole bytes per element
        ((11, 35, 2, 1), 4),  # 70 units: two words per element at rate 0.5, the second in part
    ], ids=["7-units", "18-units", "16-units", "70-units"])
    def test_equal_to_the_whole_batch(self, monkeypatch, kinds, rate, shape, slab):
        monkeypatch.setattr(tensor_nn, "SLAB_UNITS", 40)
        specs = [LayerSpec(k, rate=rate) if k == "dropout" else LayerSpec(k) for k in kinds]
        layers = Network([*specs, *HEAD], shape[:0:-1], None).layers[:len(kinds)]
        data = np.random.default_rng(6)
        x, grad = (data.standard_normal(shape).astype(np.float32) for _ in range(2))
        x.reshape(-1)[::5] = 0.0  # on the kink: x > 0 is False
        sizes = [len(s) for s, _ in tensor_nn._slabs(x, np.empty(-(-x.size // 8), np.uint8))]
        assert sizes[0] == slab and len(sizes) >= 3 and 0 < sizes[-1] < slab  # ragged last slab
        rng = np.random.default_rng(4)
        out = x.copy()
        for layer in layers:
            out = layer.forward(out, train=True, rng=rng)
        # the whole-batch reference: one keep_mask draw, one max, one multiply per factor
        reference = np.random.default_rng(4)
        want, back = x.copy(), grad.copy()
        mask = np.ones(shape, dtype=bool)
        if "relu" in kinds:
            mask &= x > 0
            np.maximum(want, 0, out=want)
        if "dropout" in kinds:
            mask &= keep_mask(reference, shape, rate)
            scale = np.float32(1.0) / np.float32(1.0 - rate)
            want *= mask
            want *= scale
        back *= mask
        if "dropout" in kinds:
            back *= scale
        assert rng.bit_generator.state == reference.bit_generator.state
        assert out.tobytes() == want.tobytes()
        held = [v for layer in layers for v in vars(layer).values() if isinstance(v, np.ndarray)]
        assert len(held) == 1 and held[0].tobytes() == np.packbits(mask).tobytes()
        for layer in reversed(layers):
            grad = layer.backward(grad)
        assert grad.tobytes() == back.tobytes()
        assert not [v for layer in layers for v in vars(layer).values()
                    if isinstance(v, np.ndarray)]


class TestSignTrace:
    """``sign_trace`` gets one x > 0 mask per ReLU spec, in stack order, folded or not."""

    def test_dense_stack_against_its_pre_activations(self):
        # a ReLU on its own, then one folded into the Dropout after it
        specs = [LayerSpec("dense", units=5), LayerSpec("relu"), LayerSpec("dense", units=4),
                 LayerSpec("relu"), LayerSpec("dropout", rate=0.5), *HEAD[1:]]
        net = Network(specs, (6,), np.random.default_rng(3), dtype=np.float64)
        assert (net.layers[3].relu, net.layers[4].relu) == (False, True)
        x = np.random.default_rng(4).standard_normal((9, 6))
        (w1, b1), (w2, b2) = ((d.w, d.b) for d in (net.layers[0], net.layers[2]))
        h1 = x @ w1.T + b1
        h2 = np.maximum(h1, 0) @ w2.T + b2
        trace = []
        probs = net.forward(x, sign_trace=trace)
        assert len(trace) == 2
        for got, pre in zip(trace, (h1, h2)):
            assert got.dtype == bool and 0 < got.sum() < got.size
            np.testing.assert_array_equal(got, pre > 0)
        np.testing.assert_array_equal(probs, net.forward(x))

    def test_cnn2_traces_its_three_relus(self):
        net = initialize(build_cnn2(), seed=2).net
        inputs = []
        for layer in net.layers:
            if layer.spec.kind == "relu":
                def recorded(x, *args, forward=layer.forward, **kwargs):
                    inputs.append(x.copy())
                    return forward(x, *args, **kwargs)
                layer.forward = recorded
        x, _ = _cnn2_batch(2, seed=5)
        trace = []
        net.forward(x, sign_trace=trace)
        assert len(trace) == len(inputs) == 3
        for got, pre in zip(trace, inputs):
            assert got.dtype == bool and 0 < got.sum() < got.size
            np.testing.assert_array_equal(got, pre > 0)


def _cnn2_batch(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 2, FRAME_LEN)).astype(np.float32)
    return x, np.eye(2, dtype=np.float32)[rng.integers(0, 2, n)]


def _second_step_peak(spec, batch) -> int:
    """Traced peak bytes of a model's second training step; the first allocates the 11.2 MB
    of gradient buffers, so it runs untraced."""
    model = initialize(spec, seed=2)
    x, onehot = _cnn2_batch(batch, seed=1)
    model.net.loss_and_grads(x, onehot, rng=np.random.default_rng(0))
    tracemalloc.start()
    try:
        model.net.loss_and_grads(x, onehot, rng=np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCallContracts:
    def test_forward_leaves_caller_input_unchanged(self):
        model = initialize(build_cnn2(), seed=2)
        x, onehot = _cnn2_batch(6, seed=1)
        x[:, :, :, :3] = -1.0  # negative inputs a layer working in place would clip
        before = x.copy()
        # a stack whose first layers work in place on what they are given
        in_place = Network([LayerSpec("relu"), LayerSpec("dropout", rate=0.5), *HEAD],
                           (1, 2, FRAME_LEN), np.random.default_rng(1))
        for net in (model.net, in_place):
            net.forward(x)
            net.forward(x, train=True, rng=np.random.default_rng(0))
            net.loss_and_grads(x, onehot, rng=np.random.default_rng(0))
            np.testing.assert_array_equal(x, before)
        frames = x[:, 0].copy()
        predict_batch(model, frames)
        np.testing.assert_array_equal(frames, before[:, 0])

    def test_state_before_the_first_weighted_layer_released(self):
        # the ReLU and Dropout come before the first weighted layer
        specs = [LayerSpec("relu"), LayerSpec("dropout", rate=0.5), *HEAD]
        net = Network(specs, (1, 2, FRAME_LEN), np.random.default_rng(1))
        x, onehot = _cnn2_batch(64, seed=2)
        net.loss_and_grads(x, onehot, rng=np.random.default_rng(0))
        held = [(i, name) for i, layer in enumerate(net.layers)
                for name, value in vars(layer).items()
                if isinstance(value, np.ndarray) and name not in ("w", "b", "gw", "gb")]
        assert held == []
        # backprop through them leaves the gradients exact
        rng = np.random.default_rng(3)
        net64 = Network(specs, (1, 2, 8), rng, dtype=np.float64)
        x64 = rng.standard_normal((3, 1, 2, 8))
        report = grad_check(net64, x64, np.eye(2)[[0, 1, 1]])
        assert report.passed, f"max rel error {report.max_rel_error}"

    @pytest.mark.parametrize("batch, bound", [(32, 16.5e6), (128, 50e6)])
    def test_training_step_peak_memory(self, batch, bound):
        # one CNN2 step measured 15.2 MB at B=32 and 46.8 MB at B=128 (19.1 and 73.6 MB
        # when relu1 and drop1 each held a bool mask and conv2 formed its shift arrays
        # for the whole batch at once); conv1's output alone is 8.5 and 33.8 MB.
        peak = _second_step_peak(build_cnn2(), batch)
        assert peak < bound, f"loss_and_grads peaked at {peak / 1e6:.1f} MB"

    def test_training_step_peak_memory_without_dropout(self):
        # at rate 0 each ReLU holds its x > 0 packed: 46.6 MB, against 55.1 MB as a bool mask
        peak = _second_step_peak(build_cnn2(0.0), 128)
        assert peak < 50e6, f"loss_and_grads peaked at {peak / 1e6:.1f} MB"

    def test_batch_sizes_do_not_leak_between_calls(self):
        # 128 -> 118 -> 128 on one model: each call equals the same call on a fresh model
        xa, ya = _cnn2_batch(128, seed=3)
        xb, yb = _cnn2_batch(118, seed=4)

        def run(net, x, onehot):
            probs = net.forward(x)
            loss, grads = net.loss_and_grads(x, onehot, rng=np.random.default_rng(9))
            return [probs, np.float64(loss)] + [g.copy() for g in grads]

        shared = initialize(build_cnn2(), seed=7).net
        sequence = [run(shared, xa, ya), run(shared, xb, yb), run(shared, xa, ya)]
        alone = [run(initialize(build_cnn2(), seed=7).net, x, y)
                 for x, y in ((xa, ya), (xb, yb), (xa, ya))]
        for got, want in zip(sequence, alone):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
