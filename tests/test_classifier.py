"""Tests for the CNN architecture contract, training behavior, and checkpoints."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stbcid import classifier
from stbcid.classifier import (
    INFER_BLOCK,
    CheckpointVersionError,
    CorruptCheckpointError,
    DescriptorMismatchError,
    Model,
    ModelSpec,
    TrainConfig,
    build_cnn2,
    decide,
    initialize,
    load_checkpoint,
    parameter_counts,
    predict_batch,
    save_checkpoint,
    train,
)
from stbcid.dataset import FRAME_LEN, DatasetConfig, generate_dataset, split_train_val
from stbcid.errors import ParameterError, ShapeError
from stbcid.tensor_nn import Network, dense_spec, flatten_spec, softmax_spec, trace_shapes

TABLE_COUNTS = [1280, 122960, 2683136, 514]


@pytest.fixture(scope="module")
def tiny_sets():
    cfg = DatasetConfig(snr_grid=(5.0, 15.0), bursts_per_cell=2, burst_len=256, seed=11)
    frames = generate_dataset(cfg)
    return split_train_val(frames, 0.5, seed=11)


class TestArchitecture:
    def test_parameter_counts_match_table(self):
        assert parameter_counts(build_cnn2()) == TABLE_COUNTS

    def test_total_parameters(self):
        assert sum(parameter_counts(build_cnn2())) == 2_807_890

    def test_shape_trace(self):
        spec = build_cnn2()
        shapes = trace_shapes(spec.layers, spec.input_shape)
        by_kind = [
            (ls.kind, s) for ls, s in zip(spec.layers, shapes)
        ]
        assert ("conv2d", (256, 2, 129)) in by_kind
        assert ("conv2d", (80, 1, 131)) in by_kind
        assert ("flatten", (10480,)) in by_kind
        assert shapes[-1] == (2,)

    def test_materialized_model_matches(self):
        model = initialize(build_cnn2(), seed=0)
        assert parameter_counts(model) == TABLE_COUNTS


class TestPredict:
    def test_probabilities_sum_to_one(self):
        model = initialize(build_cnn2(), seed=1)
        rng = np.random.default_rng(0)
        for _ in range(3):
            frame = rng.standard_normal((2, FRAME_LEN)).astype(np.float32)
            p_sm, p_al = predict_batch(model, frame[None])[0]
            assert abs(p_sm + p_al - 1.0) < 1e-6

    def test_eval_mode_deterministic(self):
        model = initialize(build_cnn2(), seed=1)
        frame = np.random.default_rng(2).standard_normal((2, FRAME_LEN)).astype(np.float32)
        first = predict_batch(model, frame[None])
        for _ in range(3):
            assert predict_batch(model, frame[None]).tobytes() == first.tobytes()

    def test_shared_model_thread_safe(self, monkeypatch):
        # a library caller may score with one model from several threads
        monkeypatch.setattr(classifier, "INFER_BLOCK", 2)  # many forward calls per chunk
        model = initialize(build_cnn2(), seed=1)
        frames = np.random.default_rng(5).standard_normal((96, 2, FRAME_LEN)).astype(np.float32)
        sequential = predict_batch(model, frames)
        assert np.unique(sequential[:, 1]).size > 48  # predictions vary across frames
        chunks = [np.arange(start, start + 32) % 96 for start in range(0, 96 * 4, 24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so interleavings inside a layer occur
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(
                    lambda idx: predict_batch(model, frames[idx]), chunks,
                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for idx, probs in zip(chunks, results):
            np.testing.assert_array_equal(probs, sequential[idx])

    def test_tie_breaks_toward_sm(self):
        model = initialize(build_cnn2(), seed=1)
        # zeroing the output layer forces logits (0, 0) -> probabilities (0.5, 0.5)
        out_layer = [l for l in model.net.layers if l.params()][-1]
        out_layer.w[...] = 0.0
        out_layer.b[...] = 0.0
        frame = np.random.default_rng(3).standard_normal((2, FRAME_LEN)).astype(np.float32)
        probs = predict_batch(model, frame[None])
        assert tuple(probs[0]) == (0.5, 0.5)
        assert decide(probs)[0] == 0


class TestStreaming:
    """predict_batch scores frames INFER_BLOCK at a time."""

    def test_probabilities_do_not_depend_on_frame_count(self):
        model = initialize(build_cnn2(), seed=2)
        frames = np.random.default_rng(4).standard_normal((256, 2, FRAME_LEN)).astype(np.float32)
        whole = model.net.forward(frames[:, None])  # one call over all 256 frames
        assert INFER_BLOCK == 32
        for n in (1, 31, 32, 33, 100, 256):
            np.testing.assert_array_equal(predict_batch(model, frames[:n]), whole[:n])

    def test_peak_memory(self):
        # one 256-frame block peaked at 156 MB (conv1's output alone is 70 MB)
        model = initialize(build_cnn2(), seed=2)
        frames = np.random.default_rng(4).standard_normal((256, 2, FRAME_LEN)).astype(np.float32)
        tracemalloc.start()
        try:
            predict_batch(model, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"predict_batch peaked at {peak / 1e6:.1f} MB"


class TestTrain:
    def test_deterministic_history(self, tiny_sets):
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5, patience=0)
        histories = []
        for _ in range(2):
            model = initialize(build_cnn2(), seed=5)
            _, h = train(model, train_set, val_set, cfg)
            histories.append(h)
        assert histories[0].train_loss == histories[1].train_loss
        assert histories[0].val_loss == histories[1].val_loss
        assert histories[0].val_accuracy == histories[1].val_accuracy

    def test_history_lengths_and_patience_zero(self, tiny_sets):
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=3, batch_size=16, seed=1, patience=0)
        model = initialize(build_cnn2(), seed=1)
        _, h = train(model, train_set, val_set, cfg)
        assert h.epochs_run == 3
        assert len(h.val_loss) == len(h.val_accuracy) == 3
        assert not h.stopped_early

    def test_early_stop_with_frozen_learning(self, tiny_sets):
        # lr=0 means validation loss can never improve after epoch 1
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=20, batch_size=16, learning_rate=0.0, seed=1, patience=3)
        model = initialize(build_cnn2(), seed=1)
        _, h = train(model, train_set, val_set, cfg)
        assert h.stopped_early
        assert h.epochs_run == 1 + cfg.patience
        assert h.best_epoch == 1

    def test_best_parameters_restored(self, tiny_sets):
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=2, batch_size=16, seed=9, patience=0)
        model = initialize(build_cnn2(), seed=9)
        model, h = train(model, train_set, val_set, cfg)
        # rerunning validation on the returned model reproduces the best epoch's loss
        from stbcid.classifier import _eval_metrics

        loss, acc = _eval_metrics(model, val_set)
        assert loss == h.val_loss[h.best_epoch - 1]

    def test_only_a_training_step_holds_activations(self, tiny_sets):
        def held(model):  # layer attributes, other than parameters and gradients, holding arrays
            return [(i, name) for i, layer in enumerate(model.net.layers)
                    for name, value in vars(layer).items()
                    if isinstance(value, np.ndarray) and name not in ("w", "b", "gw", "gb")]

        train_set, val_set = tiny_sets
        model = initialize(build_cnn2(), seed=4)
        predict_batch(model, train_set.frames[:4])
        assert held(model) == []
        onehot = np.eye(2, dtype=np.float32)[train_set.schemes[:4]]
        model.net.loss_and_grads(train_set.frames[:4, None], onehot, rng=np.random.default_rng(0))
        assert held(model) == []
        train(model, train_set, val_set, TrainConfig(epochs=1, batch_size=16, seed=4))
        assert held(model) == []

    def test_empty_sets_rejected(self, tiny_sets):
        train_set, val_set = tiny_sets
        cfg = TrainConfig(epochs=1)
        model = initialize(build_cnn2(), seed=0)
        empty = train_set.subset(np.zeros(len(train_set), dtype=bool))
        with pytest.raises(ParameterError):
            train(model, empty, val_set, cfg)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=0)
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=-1e-3)  # gradient ascent
        TrainConfig(learning_rate=0.0)  # frozen parameters stay legal
        with pytest.raises(ParameterError):
            build_cnn2(dropout_rate=1.0)


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = initialize(build_cnn2(), seed=4)
        path = tmp_path / "m.stbcnn"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        frame = np.random.default_rng(1).standard_normal((2, FRAME_LEN)).astype(np.float32)
        assert predict_batch(back, frame[None]).tobytes() == predict_batch(model, frame[None]).tobytes()

    def test_round_trip_bytes(self, tmp_path):
        model = initialize(build_cnn2(), seed=4)
        p1, p2 = tmp_path / "a.stbcnn", tmp_path / "b.stbcnn"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        model = initialize(build_cnn2(), seed=4)
        path = tmp_path / "m.stbcnn"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.stbcnn"
        path.write_bytes(b"WRONG!" + b"\x00" * 64)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        model = initialize(build_cnn2(), seed=4)
        model.net.parameters()[2].reshape(-1)[7] = bad  # conv2's kernel
        path = tmp_path / "m.stbcnn"
        save_checkpoint(model, path)
        with pytest.raises(CorruptCheckpointError, match="non-finite values in tensor 2"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = initialize(build_cnn2(), seed=4)
        path = tmp_path / "m.stbcnn"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[6:8] = (9).to_bytes(2, "little")
        path.write_bytes(raw)
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_descriptor_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.stbcnn"
        # well-formed stacks that do not map a 2 x 128 frame to the two classes
        for units, input_shape in [(4, (1, 2, FRAME_LEN)), (1, (1, 2, FRAME_LEN)),
                                   (2, (1, 2, 64))]:
            spec = ModelSpec(layers=(flatten_spec(), dense_spec(units), softmax_spec()),
                             input_shape=input_shape)
            net = Network(spec.layers, spec.input_shape, np.random.default_rng(0))
            save_checkpoint(Model(spec=spec, net=net), path)
            with pytest.raises(DescriptorMismatchError):
                load_checkpoint(path)
            if units != 2:
                with pytest.raises(ShapeError):
                    initialize(spec)
        # the same small stack with two classes over 2 x 128 frames loads fine
        spec = ModelSpec(layers=(flatten_spec(), dense_spec(2), softmax_spec()))
        save_checkpoint(initialize(spec), path)
        assert load_checkpoint(path).spec == spec

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        model = initialize(build_cnn2(), seed=4)
        path = tmp_path / "m.stbcnn"
        save_checkpoint(model, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        back = load_checkpoint(path)
        for p, q in zip(back.net.parameters(), model.net.parameters()):
            np.testing.assert_array_equal(p, q)

    def test_batch_prediction_matches_single(self, tmp_path):
        model = initialize(build_cnn2(), seed=6)
        frames = np.random.default_rng(3).standard_normal((4, 2, FRAME_LEN)).astype(np.float32)
        batch = predict_batch(model, frames)
        for i in range(4):
            np.testing.assert_allclose(batch[i], predict_batch(model, frames[i:i + 1])[0], atol=1e-7)
