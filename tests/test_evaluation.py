"""Tests for metrics aggregation and CSV/SVG export."""

import dataclasses
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from stbcid import cli, dataset
from stbcid.baseline_corr import (
    CORR_BLOCK,
    ThresholdRule,
    classify_corr,
    correlation_feature,
    frame_scores,
)
from stbcid.classifier import build_cnn2, initialize, predict_batch, save_checkpoint
from stbcid.dataset import FRAME_LEN, FrameSet
from stbcid.errors import ParameterError, ShapeError
from stbcid.evaluation import (
    AccuracyCurve,
    LossCurve,
    accuracy_vs_snr,
    confusion_matrix,
    read_accuracy_csv,
    read_loss_csv,
    render_accuracy_svg,
    render_confusion_svg,
    render_loss_svg,
    write_accuracy_csv,
    write_confusion_csv,
    write_loss_csv,
)

SM, AL = 0, 1


def _frames(schemes, snrs):
    n = len(schemes)
    return FrameSet(
        frames=np.zeros((n, 2, FRAME_LEN), np.float32),
        schemes=np.array(schemes, np.uint8),
        snrs_db=np.array(snrs, np.float64),
    )


class TestConfusionMatrix:
    def test_all_correct(self):
        cm = confusion_matrix([SM, AL, SM], [SM, AL, SM])
        np.testing.assert_array_equal(cm, [[2, 0], [0, 1]])

    def test_one_error(self):
        cm = confusion_matrix([AL, AL], [SM, AL])
        np.testing.assert_array_equal(cm, [[0, 1], [0, 1]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            confusion_matrix([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion_matrix([SM], [SM, AL])

    @pytest.mark.parametrize("bad", [2, 0.7, float("nan")])
    def test_non_class_values_rejected(self, bad):
        # counted as neither class, not truncated to one
        with pytest.raises(ParameterError):
            confusion_matrix([bad, AL], [AL, AL])
        with pytest.raises(ParameterError):
            confusion_matrix([AL, AL], [AL, bad])


class TestAccuracyVsSnr:
    def test_perfect_classifier(self):
        frames = _frames([SM, AL] * 10, [0.0] * 10 + [10.0] * 10)
        curve, confusions = accuracy_vs_snr(lambda a: frames.schemes, frames)
        assert all(acc == 1.0 for _, acc, _ in curve.points)
        assert set(confusions) == {0.0, 10.0}

    def test_constant_sm_classifier_on_balanced_data(self):
        frames = _frames([SM, AL] * 10, [5.0] * 20)
        curve, _ = accuracy_vs_snr(lambda a: np.full(len(a), SM), frames)
        assert curve.points == ((5.0, 0.5, 20),)

    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(0)
        schemes = rng.integers(0, 2, 40)
        frames = _frames(schemes, [3.0] * 40)
        preds = rng.integers(0, 2, 40)
        curve, confusions = accuracy_vs_snr(lambda a: preds, frames)
        cm = confusions[3.0]
        assert curve.points[0][1] == pytest.approx(np.trace(cm) / cm.sum())
        assert cm.sum() == 40

    def test_one_call_on_all_frames(self):
        frames = _frames([SM, AL] * 3, [0.0, 5.0] * 3)
        calls = []

        def classify(a):
            calls.append(a)
            return np.zeros(len(a), np.int64)

        accuracy_vs_snr(classify, frames)
        assert len(calls) == 1
        assert calls[0] is frames.frames and calls[0].shape == (6, 2, FRAME_LEN)

    def test_per_frame_calls_rejected(self):
        with pytest.raises(ParameterError):
            accuracy_vs_snr(lambda a: np.zeros(len(a)), _frames([SM], [0.0]), vectorized=False)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            accuracy_vs_snr(lambda a: np.full(len(a), SM), _frames([], []))

    @pytest.mark.parametrize("snrs", [[-0.0, -0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 0.0]],
                             ids=["minus-zero-first", "zero-first"])
    def test_minus_zero_joins_zero(self, tmp_path, snrs):
        """A -0.0 SNR counts under the label 0.0 whatever the frame order, as it
        does after a serialize/deserialize round trip."""
        frames = _frames([SM, AL, AL, SM], snrs)
        dataset.serialize_frames(frames, tmp_path / "d.bin")
        for fs in (frames, dataset.deserialize_frames(tmp_path / "d.bin")):
            curve, confusions = accuracy_vs_snr(lambda a: fs.schemes, fs)
            assert [repr(snr) for snr, _, _ in curve.points] == ["0.0"]
            assert [repr(snr) for snr in confusions] == ["0.0"] and curve.points[0][2] == 4


    def test_zero_is_sm_and_the_tiniest_scores_keep_their_side(self):
        frames = _frames([SM, SM, AL, SM], [0.0] * 4)
        curve, confusions = accuracy_vs_snr(lambda a: np.array([0.0, -0.0, 1e-300, -1e-300]),
                                            frames)
        assert curve.points == ((0.0, 1.0, 4),)
        np.testing.assert_array_equal(confusions[0.0], [[3, 0], [0, 1]])

    def test_class_labels_are_scores(self):
        frames = _frames([SM, AL, SM, AL, AL], [0.0, 0.0, 5.0, 5.0, 5.0])
        labels = np.array([SM, AL, AL, AL, SM], np.int64)
        curve, confusions = accuracy_vs_snr(lambda a: labels, frames)
        assert curve.points == ((0.0, 1.0, 2), (5.0, 1 / 3, 3))
        np.testing.assert_array_equal(confusions[0.0], [[1, 0], [0, 1]])
        np.testing.assert_array_equal(confusions[5.0], [[0, 1], [1, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_the_first_such_frame(self, bad):
        frames = _frames([SM, AL, SM], [0.0, 2.5, -1.0])
        with pytest.raises(ParameterError,
                           match=rf"^frame 1 of 3 \(2.5 dB\): non-finite score {bad}$"):
            accuracy_vs_snr(lambda a: np.array([0.5, bad, bad]), frames)
        frames = dataclasses.replace(frames, burst_ids=np.array([4, 9, 9]))
        with pytest.raises(ParameterError,
                           match=rf"^frame 1 of 3 \(burst 9, 2.5 dB\): non-finite score {bad}$"):
            accuracy_vs_snr(lambda a: np.array([0.5, bad, bad]), frames)

    @pytest.mark.parametrize("count", [2, 4])
    def test_one_score_per_frame(self, count):
        with pytest.raises(ShapeError, match="need 3 scores"):
            accuracy_vs_snr(lambda a: np.zeros(count), _frames([SM, AL, SM], [0.0] * 3))


def test_corr_feature_at_the_threshold_is_sm_in_any_block():
    n = CORR_BLOCK + 5  # a ragged last block of 5 frames
    frames = np.random.default_rng(0).standard_normal((n, 2, FRAME_LEN)).astype(np.float32)
    feats = [correlation_feature(f[0] + 1j * f[1]) for f in frames]
    # every frame truly AL, in a bucket of its own, so each confusion matrix shows one call
    frame_set = FrameSet(frames=frames, schemes=np.full(n, AL, np.uint8),
                         snrs_db=np.arange(n, dtype=np.float64))
    for k in (3, n - 2):  # the first block, the ragged last one
        rule = ThresholdRule(threshold=feats[k], snr_db=10.0, seq_len=FRAME_LEN, trials=100,
                             achieved_error=0.5)
        assert frame_scores(frames, rule)[k] == 0.0
        _, confusions = accuracy_vs_snr(lambda a: frame_scores(a, rule), frame_set)
        calls = [int(confusions[float(i)][AL, AL]) for i in range(n)]
        assert calls == [int(classify_corr(f, rule)) for f in feats]
        assert calls[k] == SM and 0 < sum(calls) < n


def test_eval_calls_an_exact_cnn_tie_sm(tmp_path):
    data = str(tmp_path / "tiny.bin")
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "2", "--burst-len", "256", "-o", data]) == 0
    model = initialize(build_cnn2(), seed=2)
    dense2 = model.net.layers[-2]
    dense2.w[...] = 0.0
    dense2.b[...] = 0.0
    assert (predict_batch(model, dataset.deserialize_frames(data).frames) == 0.5).all()
    save_checkpoint(model, tmp_path / "tie.stbcnn")
    out = tmp_path / "eval"
    assert cli.main(["eval", "--dataset", data, "--checkpoint", str(tmp_path / "tie.stbcnn"),
                     "-o", str(out), "--split", "all"]) == 0
    for snr in (0, 10):
        _, sm_sm, sm_al, al_sm, al_al = (out / f"confusion_{snr}dB.csv").read_text().splitlines()
        assert sm_al.endswith(",SM,AL,0") and al_al.endswith(",AL,AL,0")
        assert sm_sm.endswith(",SM,SM,6") and al_sm.endswith(",AL,SM,6")

CM_HEAD = "snr_db,true,pred,count"


class TestCsvRoundTrips:
    def test_accuracy_csv(self, tmp_path):
        curve = AccuracyCurve(points=((-5.0, 0.5, 100), (0.0, 0.75, 100), (5.0, 1.0, 100)))
        path = tmp_path / "acc.csv"
        write_accuracy_csv(curve, path)
        assert len(path.read_text().splitlines()) == 4
        assert read_accuracy_csv(path) == curve

    def test_confusion_csv(self, tmp_path):
        cm = np.array([[48, 2], [5, 45]])
        path = tmp_path / "cm.csv"
        write_confusion_csv(cm, path, snr_db=0.1)
        lines = path.read_text().splitlines()
        assert lines == ["snr_db,true,pred,count", "0.1,SM,SM,48", "0.1,SM,AL,2",
                         "0.1,AL,SM,5", "0.1,AL,AL,45"]

    def test_confusion_csv_with_snr(self, tmp_path):
        cm = np.array([[10, 0], [0, 10]])
        path = tmp_path / "cm.csv"
        write_confusion_csv(cm, path, snr_db=-5.0)
        assert path.read_text().splitlines() == [CM_HEAD, "-5.0,SM,SM,10", "-5.0,SM,AL,0",
                                                 "-5.0,AL,SM,0", "-5.0,AL,AL,10"]

    @pytest.mark.parametrize("read, header, rows, line", [
        (read_accuracy_csv, "snr_db,accuracy,n", ["0.0,abc,3"], 2),
        (read_accuracy_csv, "snr_db,accuracy,n", ["-2.0,0.5,3", "", "1,0.5"], 4),
        (read_accuracy_csv, "snr_db,accuracy,n", ["0.0,0.5,3,9"], 2),
        (read_loss_csv, "epoch,train_loss,val_loss", ["1,0.5"], 2),
        (read_loss_csv, "epoch,train_loss,val_loss", ["1,0.7,0.71", "two,0.5,0.52"], 3),
        # rows that parse but do not make an AccuracyCurve
        (read_accuracy_csv, "snr_db,accuracy,n", ["5.0,0.5,3", "0.0,0.5,3"], None),
        (read_accuracy_csv, "snr_db,accuracy,n", ["0.0,1.5,3"], None),
        (read_accuracy_csv, "snr_db,accuracy,n", ["nan,0.5,-10"], None),
        (read_accuracy_csv, "snr_db,accuracy,n", ["-inf,0.5,3"], None),
        (read_accuracy_csv, "snr_db,accuracy,n", ["0.0,0.5,3", "nan,0.5,3"], None),
        (read_accuracy_csv, "snr_db,accuracy,n", ["0.0,0.5,0"], None),
        (read_accuracy_csv, "snr_db,accuracy,n", ["0.0,0.5,-10"], None),
        (read_loss_csv, "epoch,train_loss,val_loss", ["1,nan,inf", "2,-1.0,0.5"], None),
        (read_loss_csv, "epoch,train_loss,val_loss", ["1,0.7,0.71", "2,0.5,inf"], None),
        (read_loss_csv, "epoch,train_loss,val_loss", ["1,0.7,0.71", "2,-1e-300,0.5"], None),
        # rows that parse but are not the text the writer gives their values
        (read_accuracy_csv, "snr_db,accuracy,n", ["-2.0,0.5,3", "5,0.5,3"], 3),
        (read_loss_csv, "epoch,train_loss,val_loss", ["7,0.7,0.71", "3,0.5,0.52"], 2),
    ], ids=["acc-text", "acc-short", "acc-wide", "loss-short", "loss-epoch", "acc-unsorted",
            "acc-range", "acc-nan-snr", "acc-inf-snr", "acc-nan-snr-last", "acc-n-zero",
            "acc-n-negative", "loss-nan", "loss-inf", "loss-negative", "acc-snr-int",
            "loss-epoch-order"])
    def test_malformed_rows_rejected(self, tmp_path, read, header, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ParameterError) as err:
            read(path)
        assert str(path) in str(err.value)
        assert line is None or f"line {line}" in str(err.value)

    def test_loss_csv(self, tmp_path):
        curve = LossCurve(train_loss=(0.7, 0.5, 0.4), val_loss=(0.71, 0.52, 0.45))
        path = tmp_path / "loss.csv"
        write_loss_csv(curve, path)
        assert read_loss_csv(path) == curve

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, -5e-324])
    def test_loss_curve_refuses_a_loss_no_training_writes(self, bad):
        for train, val in (((0.5, bad), (0.5, 0.4)), ((0.5,), (bad,))):
            with pytest.raises(ParameterError):
                LossCurve(train_loss=train, val_loss=val)

    def test_negative_zero_loss_reads_back(self, tmp_path):
        curve = LossCurve(train_loss=(-0.0, 0.0), val_loss=(0.0, -0.0))
        path = tmp_path / "loss.csv"
        write_loss_csv(curve, path)
        assert path.read_text().splitlines()[1:] == ["1,-0.0,0.0", "2,0.0,-0.0"]
        assert read_loss_csv(path) == curve


class TestSvg:
    def test_accuracy_svg_structure(self, tmp_path):
        curve = AccuracyCurve(points=((-10.0, 0.5, 50), (0.0, 0.9, 50), (10.0, 1.0, 50)))
        path = tmp_path / "acc.svg"
        render_accuracy_svg(curve, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 1

    def test_loss_svg_two_series_and_tick_span(self, tmp_path):
        n = 30
        curve = LossCurve(
            train_loss=tuple(0.7 * 0.9**i for i in range(n)),
            val_loss=tuple(0.75 * 0.92**i for i in range(n)),
        )
        path = tmp_path / "loss.svg"
        render_loss_svg(curve, path)
        root = ET.parse(path).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2
        labels = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
        assert "1" in labels and "30" in labels

    def test_confusion_svg_diagonal_labels(self, tmp_path):
        path = tmp_path / "cm.svg"
        render_confusion_svg(np.array([[100, 0], [0, 100]]), path, snr_db=-4.0)
        root = ET.parse(path).getroot()
        labels = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
        assert "Confusion matrix at -4 dB" in labels
        assert labels.count("100") == 2
        assert "SM" in labels and "AL" in labels

    def test_empty_curve_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            render_accuracy_svg(AccuracyCurve(points=()), tmp_path / "x.svg")

    def test_curve_validation(self):
        with pytest.raises(ParameterError):
            AccuracyCurve(points=((0.0, 0.5, 10), (0.0, 0.6, 10)))
        with pytest.raises(ParameterError):
            AccuracyCurve(points=((0.0, 1.5, 10),))
        with pytest.raises(ParameterError, match="finite"):
            AccuracyCurve(points=((float("nan"), 0.5, 10),))
        with pytest.raises(ParameterError, match="n >= 1 frames"):
            AccuracyCurve(points=((0.0, 0.5, 0),))
