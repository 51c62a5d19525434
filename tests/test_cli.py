"""Tests for the command-line entry point: exit codes and the generate -> train -> eval path."""

import numpy as np
import pytest

from stbcid import classifier, cli, dataset


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


@pytest.mark.parametrize("argv", [
    ["train", "--bogus"],
    ["gradcheck", "--nets", "0"],
])
def test_bad_flags_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err
