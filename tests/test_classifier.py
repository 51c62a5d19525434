"""Tests for the CNN architecture contract, training behavior, and checkpoints."""

import struct
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stbcid import classifier
from stbcid.classifier import (
    HEAD_BLOCK,
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
from stbcid.tensor_nn import LAYER_KINDS, LAYER_TABLE, LayerSpec, Network, trace_shapes

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
        # many calls of both forward parts per chunk
        monkeypatch.setattr(classifier, "INFER_BLOCK", 2)
        monkeypatch.setattr(classifier, "HEAD_BLOCK", 8)
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
    """predict_batch runs the conv layers INFER_BLOCK frames and the head HEAD_BLOCK rows at a time."""

    def test_probabilities_do_not_depend_on_frame_count(self):
        frames = np.random.default_rng(4).standard_normal((256, 2, FRAME_LEN)).astype(np.float32)
        assert (INFER_BLOCK, HEAD_BLOCK) == (16, 128)
        for dtype in (np.float32, np.float64):  # perfbench's infer check scores a float64 copy
            model = initialize(build_cnn2(), seed=2, dtype=dtype)
            whole = model.net.forward(frames[:, None])  # one call over all 256 frames
            for n in (0, 1, 15, 16, 17, 127, 128, 129, 256):
                probs = predict_batch(model, frames[:n])
                assert probs.shape == (n, 2)
                np.testing.assert_array_equal(probs, whole[:n], err_msg=f"{dtype.__name__}, {n}")

    def test_peak_memory(self):
        # one 256-frame block peaked at 156 MB (conv1's output alone is 70 MB); 16-frame conv
        # blocks and the 128-row head buffer peak at 12.78 MB, against 14.29 MB for 32-frame
        # blocks through the whole stack. The 0.4 MB margin is less than one 16-frame block of
        # flat rows (0.67 MB), so holding one more of those fails here.
        model = initialize(build_cnn2(), seed=2)
        frames = np.random.default_rng(4).standard_normal((256, 2, FRAME_LEN)).astype(np.float32)
        tracemalloc.start()
        try:
            predict_batch(model, frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13.2e6, f"predict_batch peaked at {peak / 1e6:.2f} MB"


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
        with pytest.raises(ParameterError, match="read back"):
            build_cnn2(dropout_rate=0.1234567)  # a checkpoint would load it as 0.123457


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
        model.net.parameters()[2].flat[7] = bad  # conv2's kernel, element 7 in C order
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
        # well-formed stacks that do not map a 2 x 128 frame to the two classes; CNN2's
        # layers map a 2 x 64 frame to (2,), with a dense1 input other than 10480
        def small(units):
            return (LayerSpec("flatten"), LayerSpec("dense", units=units), LayerSpec("softmax"))

        for layers, input_shape in [(small(4), (1, 2, FRAME_LEN)), (small(1), (1, 2, FRAME_LEN)),
                                    (small(2), (1, 2, 64)), (build_cnn2().layers, (1, 2, 64))]:
            spec = ModelSpec(layers=layers, input_shape=input_shape)
            net = Network(spec.layers, spec.input_shape, np.random.default_rng(0))
            save_checkpoint(Model(spec=spec, net=net), path)
            with pytest.raises(DescriptorMismatchError):
                load_checkpoint(path)
            with pytest.raises(ShapeError):  # initialize builds no model that fails to load
                initialize(spec)
        # the same small stack with two classes over 2 x 128 frames loads fine
        spec = ModelSpec(layers=small(2))
        save_checkpoint(initialize(spec), path)
        assert load_checkpoint(path).spec == spec

    def test_rate_with_six_decimals_round_trips(self, tmp_path):
        spec = build_cnn2(dropout_rate=0.3)  # stored as float32(0.3) = 0.30000001192...
        p1, p2 = tmp_path / "a.stbcnn", tmp_path / "b.stbcnn"
        save_checkpoint(initialize(spec, seed=4), p1)
        back = load_checkpoint(p1)
        assert back.spec == spec
        save_checkpoint(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # header: magic, version, ndim, the three input dims, the layer count
    DESC0 = len(classifier.CHECKPOINT_MAGIC) + 2 + 1 + 3 * 4 + 4

    @pytest.mark.parametrize("layer, offset, field", [
        (2, 1, struct.pack("<I", 5)),  # relu1 with a filter count
        (2, 13, struct.pack("<f", 0.5)),  # relu1 with a rate
        (0, 5, struct.pack("<I", 1)),  # pad1 with a kernel height
        (3, 13, struct.pack("<f", 0.1234567)),  # drop1 with a rate it would load as 0.123457
    ], ids=["relu-filters", "relu-rate", "pad-kernel", "dropout-7-decimals"])
    def test_descriptor_that_does_not_re_encode_rejected(self, tmp_path, layer, offset, field):
        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(build_cnn2(), seed=4), path)
        raw = bytearray(path.read_bytes())
        at = self.DESC0 + classifier._DESC.size * layer + offset
        raw[at:at + len(field)] = field
        path.write_bytes(raw)
        with pytest.raises(CorruptCheckpointError, match="does not re-encode"):
            load_checkpoint(path)

    @pytest.mark.parametrize("units", [2 ** 20, 2 ** 32 - 1])  # 40.9 GiB, 164 TiB of dense1
    def test_parameters_the_file_cannot_hold_rejected(self, tmp_path, monkeypatch, units):
        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(build_cnn2(), seed=4), path)
        raw = bytearray(path.read_bytes())
        at = self.DESC0 + classifier._DESC.size * 9 + 1  # dense1's unit count
        raw[at:at + 4] = struct.pack("<I", units)
        path.write_bytes(raw)

        def no_network(*args, **kwargs):
            raise AssertionError("load_checkpoint allocated the parameters")

        monkeypatch.setattr(classifier, "Network", no_network)
        with pytest.raises(CorruptCheckpointError, match="more parameters than it has"):
            load_checkpoint(path)

    def test_appended_byte_rejected(self, tmp_path):
        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(build_cnn2(), seed=4), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CorruptCheckpointError, match="1 trailing bytes"):
            load_checkpoint(path)

    # after the 14 descriptors: the tensor count, then conv1's kernel rank and dims
    COUNT = DESC0 + classifier._DESC.size * 14

    @pytest.mark.parametrize("offset, written, stored, match", [
        (0, 8, 7, "7 stored tensors, architecture has 8"),
        (4 + 1, 256, 255, r"tensor 0 is not stored as \(256, 1, 1, 4\)"),  # same length
    ], ids=["tensor-count", "tensor-shape"])
    def test_tensor_header_other_than_written_rejected(self, tmp_path, offset, written, stored,
                                                       match):
        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(build_cnn2(), seed=4), path)
        raw = bytearray(path.read_bytes())
        at = self.COUNT + offset
        assert raw[at:at + 4] == struct.pack("<I", written)
        raw[at:at + 4] = struct.pack("<I", stored)
        path.write_bytes(raw)
        with pytest.raises(DescriptorMismatchError, match=match):
            load_checkpoint(path)

    @staticmethod
    def _traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_peak_memory(self, tmp_path):
        # a copy of the file plus a copy of each tensor peaked at 3.96x the parameter bytes,
        # and reading in place with zeroed gradients allocated up front at 2.01x; the
        # parameters alone, with gradients left to the first backward, are 1.01x
        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(build_cnn2(), seed=4), path)
        peak = self._traced_peak(load_checkpoint, path) / (4 * sum(TABLE_COUNTS))
        assert peak < 1.5, f"load_checkpoint peaked at {peak:.2f}x the parameter bytes"

    def test_save_peak_memory(self, tmp_path):
        # a whole copy of each transposed conv kernel peaked at 0.50 MB (conv2's is 491 KB);
        # written one filter at a time (6 KB for conv2), a save peaked at 12.7 KB
        model = initialize(build_cnn2(), seed=4)
        path = tmp_path / "m.stbcnn"
        save_checkpoint(model, path)  # first-call allocations
        peak = self._traced_peak(save_checkpoint, model, path)
        assert peak < 64 * 1024, f"save_checkpoint peaked at {peak} bytes"
        assert load_checkpoint(path).net.parameters()[2].tobytes() == \
            model.net.parameters()[2].tobytes()

    def test_initialize_peak_memory(self):
        # drawing each weight tensor in float64 and casting it peaked at 2.96x the parameter
        # bytes (with the zeroed gradients); drawn in blocks straight into the parameters, 1.05x
        peak = self._traced_peak(initialize, build_cnn2()) / (4 * sum(TABLE_COUNTS))
        assert peak < 1.5, f"initialize peaked at {peak:.2f}x the parameter bytes"

    def test_loaded_model_holds_no_gradients_until_a_backward(self, tmp_path):
        def held(model):  # layer attributes, other than parameters, holding arrays
            return [(i, name) for i, layer in enumerate(model.net.layers)
                    for name, value in vars(layer).items()
                    if isinstance(value, np.ndarray) and name not in ("w", "b")]

        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(build_cnn2(), seed=4), path)
        model = load_checkpoint(path)
        assert held(model) == [] and model.net.gradients() == []
        frames = np.random.default_rng(3).standard_normal((4, 2, FRAME_LEN)).astype(np.float32)
        predict_batch(model, frames)
        assert held(model) == [] and model.net.gradients() == []
        onehot = np.eye(2, dtype=np.float32)[[0, 1, 1, 0]]
        _, grads = model.net.loss_and_grads(frames[:, None], onehot, rng=np.random.default_rng(0))
        params = model.net.parameters()
        assert [(g.shape, g.dtype) for g in grads] == [(p.shape, p.dtype) for p in params]

    def test_bad_magic_rejected_without_reading_the_file(self, tmp_path):
        path = tmp_path / "big.stbcnn"
        with open(path, "wb") as f:
            f.write(b"WRONG!")
            f.truncate(64 << 20)

        def load():
            with pytest.raises(CorruptCheckpointError, match="bad checkpoint magic"):
                load_checkpoint(path)

        peak = self._traced_peak(load)
        assert peak < 1 << 20, f"a 64 MB file of bad magic peaked at {peak / 1e6:.1f} MB"

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


# one spec of each kind, with the fields LAYER_TABLE gives it
EXAMPLES = {"conv2d": dict(filters=3, kernel=(2, 5)), "dense": dict(units=7), "relu": {},
            "softmax": {}, "dropout": dict(rate=0.3), "zeropad": dict(pad=0), "flatten": {}}
STRAY = dict(filters=1, kernel=(1, 1), units=1, rate=0.5, pad=1)  # a value for each field


def _invalid_fields():
    """Specs that must not build: a field missing or stray, or a value out of its range."""
    cases = []
    for kind, good in EXAMPLES.items():
        for name in LAYER_TABLE[kind].fields:
            cases.append((f"no-{name}", kind, {k: v for k, v in good.items() if k != name}))
        cases += [(name, kind, {**good, name: value}) for name, value in STRAY.items()
                  if name not in good]
    for bad in (0, -1):
        cases += [(f"filters={bad}", "conv2d", dict(filters=bad, kernel=(2, 5))),
                  (f"kh={bad}", "conv2d", dict(filters=3, kernel=(bad, 5))),
                  (f"kw={bad}", "conv2d", dict(filters=3, kernel=(2, bad))),
                  (f"units={bad}", "dense", dict(units=bad))]
    cases += [("pad=-1", "zeropad", dict(pad=-1)),
              ("units=2**32", "dense", dict(units=2 ** 32)),  # a descriptor holds a uint32
              ("3-dim-kernel", "conv2d", dict(filters=3, kernel=(2, 5, 1)))]
    cases += [(f"rate={rate}", "dropout", dict(rate=rate))
              for rate in (1.0, -0.1, 0.1234567, float("nan"))]
    return [pytest.param(kind, fields, id=f"{kind}-{what}") for what, kind, fields in cases]


def _invalid_descriptors():
    """Descriptor columns after the kind index that no spec writes: a stray value or a zero count.

    The columns are the count (filters, units or pad), the kernel height and width, and the rate.
    """
    names = ("count", "kh", "kw", "rate")
    columns = {"filters": (0,), "units": (0,), "pad": (0,), "kernel": (1, 2), "rate": (3,)}
    cases = []
    for kind, fields in EXAMPLES.items():
        spec = LayerSpec(kind, **fields)
        good = classifier._DESC.unpack(classifier._layer_descriptor(spec))[1:]
        used = {c for name in LAYER_TABLE[kind].fields for c in columns[name]}
        for c in range(4):
            if c not in used:
                value = 0.5 if c == 3 else 1
            elif kind != "zeropad" and c != 3:  # a pad or a rate of 0 is valid
                value = 0
            else:
                continue
            cases.append(pytest.param(kind, (*good[:c], value, *good[c + 1:]),
                                      id=f"{kind}-{names[c]}={value}"))
    return cases


class TestLayerTable:
    def test_kind_indices_are_pinned(self):
        # a kind's position is its checkpoint index: kinds are only ever appended
        assert LAYER_KINDS == ("conv2d", "dense", "relu", "softmax", "dropout", "zeropad",
                               "flatten")
        assert set(EXAMPLES) == set(LAYER_KINDS)

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_each_kind_round_trips_through_its_descriptor(self, kind):
        spec = LayerSpec(kind, **EXAMPLES[kind])
        raw = classifier._layer_descriptor(spec)
        assert classifier._spec_from_descriptor(*classifier._DESC.unpack(raw)) == spec

    @pytest.mark.parametrize("kind, fields", _invalid_fields())
    def test_spec_a_descriptor_would_not_write_back_rejected(self, kind, fields):
        with pytest.raises(ParameterError, match=f"^{kind} "):
            LayerSpec(kind, **fields)

    @pytest.mark.parametrize("kind, columns", _invalid_descriptors())
    def test_descriptor_no_spec_writes_rejected(self, tmp_path, kind, columns):
        # a small valid model with one layer of each kind; one of its descriptors is replaced
        layers = (LayerSpec("zeropad", pad=1), LayerSpec("conv2d", filters=2, kernel=(1, 2)),
                  LayerSpec("relu"), LayerSpec("dropout", rate=0.5), LayerSpec("flatten"),
                  LayerSpec("dense", units=2), LayerSpec("softmax"))
        path = tmp_path / "m.stbcnn"
        save_checkpoint(initialize(ModelSpec(layers=layers)), path)
        assert load_checkpoint(path).spec.layers == layers
        at = TestCheckpoint.DESC0 + classifier._DESC.size * [s.kind for s in layers].index(kind)
        raw = bytearray(path.read_bytes())
        raw[at:at + classifier._DESC.size] = classifier._DESC.pack(LAYER_KINDS.index(kind),
                                                                   *columns)
        path.write_bytes(raw)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)
