"""Tests for the command-line entry point: exit codes and the generate -> train -> eval path."""

import dataclasses

import numpy as np
import pytest

from stbcid import baseline_corr, classifier, cli, dataset, evaluation


def test_gradcheck_exits_zero(capsys):
    assert cli.main(["gradcheck", "--nets", "3"]) == 0
    assert "all gradients within tolerance" in capsys.readouterr().out


def test_generate_train_eval(tmp_path, monkeypatch, capsys):
    data = str(tmp_path / "tiny.bin")
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "2", "--burst-len", "256", "-o", data]) == 0

    loads = []
    deserialize = dataset.deserialize_frames
    monkeypatch.setattr(dataset, "deserialize_frames",
                        lambda path: loads.append(path) or deserialize(path))
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", data, "-o", str(out), "--epochs", "1",
                     "--batch-size", "8"]) == 0
    assert loads == [data]  # train reads and splits the dataset once
    assert (out / "checkpoint.stbcnn").exists()

    assert cli.main(["eval", "--dataset", data, "--checkpoint", str(out / "checkpoint.stbcnn"),
                     "-o", str(tmp_path / "eval"), "--split", "val"]) == 0
    assert (tmp_path / "eval" / "accuracy.csv").exists()
    assert "overall" in capsys.readouterr().out


def test_eval_threads_match_one_thread(tmp_path):
    data = str(tmp_path / "tiny.bin")
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "4", "--burst-len", "256", "-o", data]) == 0
    # an untrained model, its output bias set so that the decisions split the frames
    frames = dataset.deserialize_frames(data).frames
    model = classifier.initialize(classifier.build_cnn2(), seed=2)
    probs = classifier.predict_batch(model, frames)
    model.net.layers[-2].b[0] += np.median(np.log(probs[:, 1]) - np.log(probs[:, 0]))
    preds = classifier.predict_batch(model, frames).argmax(axis=1)
    assert 0 < preds.sum() < len(preds)
    checkpoint = str(tmp_path / "m.stbcnn")
    classifier.save_checkpoint(model, checkpoint)

    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"eval{threads}"
        assert cli.main(["eval", "--dataset", data, "--checkpoint", checkpoint, "-o", str(out),
                         "--split", "all", "--threads", threads]) == 0
        outputs.append((out / "accuracy.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_eval_corr_matches_rule_per_frame(tmp_path, monkeypatch):
    data = str(tmp_path / "grid.bin")
    assert cli.main(["generate", "--snr-min", "-10", "--snr-max", "10", "--snr-step", "5",
                     "--bursts", "3", "--seed", "4", "-o", data]) == 0
    frames = dataset.deserialize_frames(data)
    assert len(frames) % cli.CORR_BLOCK and len(frames) > cli.CORR_BLOCK  # a ragged last block
    feats = [baseline_corr.correlation_feature(f[0] + 1j * f[1]) for f in frames.frames]

    def expected_csv(rule):
        preds = np.array([int(baseline_corr.classify_corr(f, rule)) for f in feats])
        curve, _ = evaluation.accuracy_vs_snr(lambda a: preds, frames, vectorized=True)
        evaluation.write_accuracy_csv(curve, tmp_path / "expected.csv")
        return (tmp_path / "expected.csv").read_bytes()

    def eval_csv(name):
        out = tmp_path / name
        assert cli.main(["eval", "--dataset", data, "--baseline", "corr", "-o", str(out),
                         "--split", "all", "--calibrate-trials", "150", "--seed", "4"]) == 0
        return (out / "accuracy.csv").read_bytes()

    rule = baseline_corr.calibrate_threshold(10.0, 128, 150, seed=4, normalize=True)
    assert eval_csv("corr") == expected_csv(rule)
    # a threshold equal to one frame's feature: the tie goes to SM
    tie = dataclasses.replace(rule, threshold=feats[300].feature)
    monkeypatch.setattr(baseline_corr, "calibrate_threshold", lambda *args, **kwargs: tie)
    assert eval_csv("tie") == expected_csv(tie)


@pytest.mark.parametrize("argv", [
    ["train", "--bogus"],
    ["gradcheck", "--nets", "0"],
])
def test_bad_flags_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err
