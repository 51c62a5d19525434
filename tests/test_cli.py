"""Tests for the command-line entry point: exit codes and the generate -> train -> eval path."""

import pytest

from stbcid import cli, dataset


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


@pytest.mark.parametrize("argv", [
    ["train", "--bogus"],
    ["gradcheck", "--nets", "0"],
])
def test_bad_flags_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err
