"""Tests for the network engine: forward ops, backprop vs finite differences, Adam."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stbcid.classifier import (
    CorruptCheckpointError,
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
    LAYER_KINDS,
    Dropout,
    Network,
    adam_init,
    adam_step,
    backprop,
    conv2d_forward,
    conv_spec,
    cross_entropy_loss,
    dense_forward,
    dense_spec,
    dropout,
    dropout_spec,
    flatten_spec,
    grad_check,
    keep_mask,
    random_micro_network,
    relu,
    relu_spec,
    softmax,
    softmax_spec,
    trace_shapes,
    zeropad_spec,
)


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
        assert cross_entropy_loss([0.5, 0.5], [1, 0]) == pytest.approx(np.log(2.0), rel=1e-9)
        assert cross_entropy_loss([1.0, 0.0], [1, 0]) == pytest.approx(0.0, abs=1e-12)
        assert cross_entropy_loss([0.25, 0.75], [0, 1]) == pytest.approx(-np.log(0.75), rel=1e-9)

    def test_cross_entropy_clamps_zero(self):
        # ln(1e-12) rather than -inf
        assert cross_entropy_loss([0.0, 1.0], [1, 0]) == pytest.approx(-np.log(1e-12))

    def test_malformed_onehot_rejected(self):
        with pytest.raises(ParameterError):
            cross_entropy_loss([0.5, 0.5], [1, 1])
        with pytest.raises(ParameterError):
            cross_entropy_loss([0.5, 0.5], [0.3, 0.7])


class TestDropout:
    def test_eval_identity(self):
        x = np.arange(10.0)
        np.testing.assert_array_equal(dropout(x, 0.9, "eval"), x)

    def test_rate_zero_identity(self):
        x = np.arange(10.0)
        np.testing.assert_array_equal(dropout(x, 0.0, "train", np.random.default_rng(0)), x)

    def test_survivors_scaled_and_mean_preserved(self):
        rng = np.random.default_rng(1)
        x = np.full(100_000, 3.0)
        out = dropout(x, 0.5, "train", rng)
        kept = out[out != 0.0]
        np.testing.assert_allclose(kept, 6.0, atol=1e-12)  # exactly 2x survivors
        assert abs(out.mean() - 3.0) / 3.0 < 0.02

    def test_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            dropout(np.zeros(3), 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ParameterError):
            dropout(np.zeros(3), 0.5, "test", np.random.default_rng(0))


def _single_dense_net(weights, bias):
    net = Network(
        [dense_spec(weights.shape[0]), softmax_spec()],
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
        _, grads = backprop(net, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        for g in grads:
            assert np.all(np.abs(g) < 1e-12)

    def test_dense_gradient_closed_form(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        x = rng.standard_normal(3)
        onehot = np.array([0.0, 1.0])
        net = _single_dense_net(w, b)
        loss, grads = backprop(net, x, onehot)
        p = softmax(w @ x + b)
        np.testing.assert_allclose(grads[0], np.outer(p - onehot, x), atol=1e-12)
        np.testing.assert_allclose(grads[1], p - onehot, atol=1e-12)
        assert loss == pytest.approx(-np.log(p[1]), rel=1e-12)

    def test_micro_net_matches_finite_differences(self):
        # input 1x2x8 through conv+conv+dense+dense, per the pinned FD oracle
        rng = np.random.default_rng(12)
        specs = [
            conv_spec(3, 1, 3), relu_spec(),
            conv_spec(4, 2, 2), relu_spec(),
            flatten_spec(), dense_spec(6), relu_spec(),
            dense_spec(2), softmax_spec(),
        ]
        net = Network(specs, (1, 2, 8), rng, dtype=np.float64)
        x = rng.standard_normal((1, 2, 8))
        onehot = np.array([1.0, 0.0])
        report = grad_check(net, x, onehot, step=1e-5, tolerance=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error}"


class TestAdam:
    def test_bit_equal_to_textbook_expression(self):
        rng = np.random.default_rng(6)
        shapes = [(7, 3), (5,)]
        params = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        ref = [p.copy() for p in params]
        state = adam_init(params, lr=1e-2)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
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

    def test_zero_gradient_fixed_point(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        before = [p.copy() for p in params]
        state = adam_init(params)
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
        state = adam_init(params)
        with pytest.raises(ShapeError):
            adam_step(params, [np.zeros(3)], state)


class TestGradCheck:
    def test_micro_cnn_within_tolerance(self):
        net, x, onehot = random_micro_network(seed=0)
        report = grad_check(net, x, onehot, step=1e-5, tolerance=1e-4)
        assert report.passed
        assert report.n_checked + report.n_kink_skipped == sum(
            p.size for p in net.parameters()
        )

    def test_linear_net_near_exact(self):
        net, x, onehot = random_micro_network(seed=1, linear_only=True)
        report = grad_check(net, x, onehot, step=1e-4, tolerance=1e-7)
        assert report.passed, f"max rel error {report.max_rel_error}"

    def test_relu_kink_excluded_and_reported(self):
        # zero input makes every dense1 pre-activation sit exactly on the kink;
        # perturbing a bias flips the activation pattern one-sided
        net = Network(
            [dense_spec(3), relu_spec(), dense_spec(2), softmax_spec()],
            (4,),
            np.random.default_rng(2),
            dtype=np.float64,
        )
        x = np.zeros(4)
        report = grad_check(net, x, np.array([1.0, 0.0]), step=1e-5, tolerance=1e-4)
        assert report.n_kink_skipped >= 3  # at least the three dense1 biases
        bias_tensor_index = 1  # parameters are [w0, b0, w1, b1]
        assert all(pi == bias_tensor_index for pi, _ in report.kink_indices)
        assert report.passed


class TestNetworkValidation:
    def test_must_end_with_softmax(self):
        with pytest.raises(ParameterError):
            Network([dense_spec(2)], (3,), np.random.default_rng(0))

    def test_dense_needs_flat_input(self):
        with pytest.raises(ShapeError):
            Network(
                [dense_spec(2), softmax_spec()], (1, 2, 8), np.random.default_rng(0)
            )

    def test_dropout_spec_validation(self):
        with pytest.raises(ParameterError):
            dropout_spec(1.0)

    def test_zeropad_changes_width_only(self):
        rng = np.random.default_rng(0)
        net = Network(
            [zeropad_spec(2), conv_spec(1, 1, 1), flatten_spec(), dense_spec(2), softmax_spec()],
            (1, 2, 4),
            rng,
            dtype=np.float64,
        )
        # layers hold activations width-major: [B, W, H, C]
        out = net.layers[0].forward(np.ones((1, 4, 2, 1)))
        assert out.shape == (1, 8, 2, 1)
        assert np.all(out[:, :2] == 0.0) and np.all(out[:, -2:] == 0.0)
        assert np.all(out[:, 2:-2] == 1.0)


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

    @pytest.mark.parametrize("f1, k1, f2, pad, windowed", [
        (3, 3, 3, 1, (True, False)),  # CNN2's choice: window patch, then shifted GEMMs
        (3, 3, 3, 0, (True, False)),  # no zero columns to hide rows that cross elements
        (2, 3, 8, 0, (False, True)),  # shifted first layer; windowed layer with input grad
    ])
    def test_cnn2_kernel_pattern_matches_finite_differences(self, f1, k1, f2, pad, windowed):
        # a 1xk kernel on each row of a C=1, H=2 input, then a full-height 2xk,
        # on a batch, so rows of one element meet the next in the shifted GEMMs
        rng = np.random.default_rng(21)
        specs = [
            zeropad_spec(pad), conv_spec(f1, 1, k1), relu_spec(), dropout_spec(0.5),
            zeropad_spec(pad), conv_spec(f2, 2, 2), relu_spec(),
            flatten_spec(), dense_spec(5), relu_spec(), dense_spec(2), softmax_spec(),
        ]
        net = Network(specs, (1, 2, 7), rng, dtype=np.float64)
        convs = [layer for layer, spec in zip(net.layers, specs) if spec.kind == "conv2d"]
        assert tuple(layer._windowed for layer in convs) == windowed
        x = rng.standard_normal((3, 1, 2, 7))
        onehot = np.eye(2)[[0, 1, 1]]
        report = grad_check(net, x, onehot, step=1e-5, tolerance=1e-4)
        assert report.passed, f"max rel error {report.max_rel_error}"
        assert report.n_checked + report.n_kink_skipped == sum(p.size for p in net.parameters())

    def test_partial_height_kernel_rejected(self):
        specs = [conv_spec(2, 2, 2), flatten_spec(), dense_spec(2), softmax_spec()]
        with pytest.raises(ShapeError):
            trace_shapes(specs, (1, 3, 8))
        with pytest.raises(ShapeError):
            Network(specs, (1, 3, 8), np.random.default_rng(0))

    def test_partial_height_checkpoint_rejected(self, tmp_path):
        spec = ModelSpec(
            layers=(conv_spec(2, 3, 2), flatten_spec(), dense_spec(2), softmax_spec()),
            input_shape=(1, 3, 8),
        )
        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(spec), path)
        conv = LAYER_KINDS.index("conv2d")
        full_height = struct.pack("<BIII", conv, 2, 3, 2)
        raw = path.read_bytes()
        assert raw.count(full_height) == 1
        path.write_bytes(raw.replace(full_height, struct.pack("<BIII", conv, 2, 2, 2)))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_dropout_draws_keep_bits_channel_first(self):
        # a seed drops the same units as a channel-first engine would
        x = np.ones((2, 5, 2, 3), dtype=np.float32)  # width-major [B, W, H, C]
        layer = Dropout(dropout_spec(0.5))
        rng = np.random.default_rng(4)
        out = layer.forward(x, train=True, rng=rng)
        reference = np.random.default_rng(4)
        keep = reference.random((2, 3, 2, 5), dtype=np.float32) >= 0.5
        np.testing.assert_array_equal(out, 2.0 * keep.transpose(0, 3, 2, 1))
        # the same units pass the gradient, and the generator ends where the float draw leaves it
        grad = np.full((2, 5, 2, 3), 3.0, dtype=np.float32)
        np.testing.assert_array_equal(layer.backward(grad), 6.0 * keep.transpose(0, 3, 2, 1))
        assert rng.random() == reference.random()


class TestKeepMask:
    """keep_mask streams PCG64 words but must keep exactly what random(float32) >= rate keeps."""

    @pytest.mark.parametrize("rate", [0.5, 0.3, 1 / 3])
    @pytest.mark.parametrize("shape", [
        (3, 5, 2, 4),  # 40 units per element: whole words
        (3, 5, 1, 3),  # 15 per element: a half-word carried into the next element
        (4, 7),  # a dense layer's [B, units], odd
        (1, 1, 1, 1),  # one unit: half a word drawn, or the buffered half-word used
    ])
    @pytest.mark.parametrize("carried", [False, True])
    def test_matches_float32_draw(self, rate, shape, carried):
        rng, reference = np.random.default_rng(17), np.random.default_rng(17)
        if carried:  # one float32 draw leaves the high half of a word buffered
            assert rng.random(dtype=np.float32) == reference.random(dtype=np.float32)
            assert rng.bit_generator.state["has_uint32"] == 1
        keep = keep_mask(rng, shape, rate)
        channel_first = (shape[0],) + shape[:0:-1]
        expected = reference.random(channel_first, dtype=np.float32) >= rate
        np.testing.assert_array_equal(keep, expected.transpose(0, *range(len(shape) - 1, 0, -1)))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM])
    def test_other_bit_generators_rejected(self, bitgen):
        with pytest.raises(ParameterError):
            keep_mask(np.random.Generator(bitgen(0)), (2, 3), 0.5)
        with pytest.raises(ParameterError):
            Dropout(dropout_spec(0.5)).forward(
                np.ones((2, 3)), train=True, rng=np.random.Generator(bitgen(0)))


def _cnn2_batch(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 2, FRAME_LEN)).astype(np.float32)
    return x, np.eye(2, dtype=np.float32)[rng.integers(0, 2, n)]


class TestCallContracts:
    def test_forward_leaves_caller_input_unchanged(self):
        model = initialize(build_cnn2(), seed=2)
        x, onehot = _cnn2_batch(6, seed=1)
        x[:, :, :, :3] = -1.0  # negative inputs a layer working in place would clip
        before = x.copy()
        # a stack whose first layers work in place on what they are given
        in_place = Network([relu_spec(), dropout_spec(0.5), flatten_spec(), dense_spec(2),
                            softmax_spec()], (1, 2, FRAME_LEN), np.random.default_rng(1))
        for net in (model.net, in_place):
            net.forward(x)
            net.forward(x, train=True, rng=np.random.default_rng(0))
            net.loss_and_grads(x, onehot, train=True, rng=np.random.default_rng(0))
            np.testing.assert_array_equal(x, before)
        frames = x[:, 0].copy()
        predict_batch(model, frames)
        np.testing.assert_array_equal(frames, before[:, 0])

    def test_batch_sizes_do_not_leak_between_calls(self):
        # 128 -> 118 -> 128 on one model: each call equals the same call on a fresh model
        xa, ya = _cnn2_batch(128, seed=3)
        xb, yb = _cnn2_batch(118, seed=4)

        def run(net, x, onehot):
            probs = net.forward(x)
            loss, grads = net.loss_and_grads(x, onehot, train=True, rng=np.random.default_rng(9))
            return [probs, np.float64(loss)] + [g.copy() for g in grads]

        shared = initialize(build_cnn2(), seed=7).net
        sequence = [run(shared, xa, ya), run(shared, xb, yb), run(shared, xa, ya)]
        alone = [run(initialize(build_cnn2(), seed=7).net, x, y)
                 for x, y in ((xa, ya), (xb, yb), (xa, ya))]
        for got, want in zip(sequence, alone):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
