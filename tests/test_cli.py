"""Tests for the command-line entry point: exit codes and the generate -> train -> eval path."""

import argparse
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


def test_eval_cnn_matches_predict_batch(tmp_path):
    data = str(tmp_path / "tiny.bin")
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "4", "--burst-len", "256", "-o", data]) == 0
    # an untrained model, its output bias set so that the decisions split the frames
    frames = dataset.deserialize_frames(data)
    model = classifier.initialize(classifier.build_cnn2(), seed=2)
    probs = classifier.predict_batch(model, frames.frames)
    model.net.layers[-2].b[0] += np.median(np.log(probs[:, 1]) - np.log(probs[:, 0]))
    preds = classifier.predict_batch(model, frames.frames).argmax(axis=1)
    assert 0 < preds.sum() < len(preds)
    checkpoint = str(tmp_path / "m.stbcnn")
    classifier.save_checkpoint(model, checkpoint)

    curve, _ = evaluation.accuracy_vs_snr(lambda a: preds, frames, vectorized=True)
    evaluation.write_accuracy_csv(curve, tmp_path / "expected.csv")
    out = tmp_path / "eval"
    assert cli.main(["eval", "--dataset", data, "--checkpoint", checkpoint, "-o", str(out),
                     "--split", "all"]) == 0
    assert (out / "accuracy.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


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


@pytest.mark.parametrize("rate", [None, 0.2])
def test_train_checkpoint_records_dropout_rate(tmp_path, rate):
    data = str(tmp_path / "tiny.bin")
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "2", "--burst-len", "256", "-o", data]) == 0
    expected = 0.5 if rate is None else rate
    flags = [] if rate is None else ["--dropout", str(rate)]
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", data, "-o", str(out), "--epochs", "1",
                     "--batch-size", "8", "--seed", "3", *flags]) == 0
    written = (out / "checkpoint.stbcnn").read_bytes()

    stored = classifier.load_checkpoint(out / "checkpoint.stbcnn").spec
    rates = [ls.rate for ls in stored.layers if ls.kind == "dropout"]
    assert rates == [expected] * 3
    # the library path with the same spec trains the same weights
    frames = dataset.assign_burst_ids(
        dataset.deserialize_frames(data), dataset.read_manifest(data + ".manifest")[0])
    train_set, val_set = dataset.split_train_val(frames, 0.5, 3)
    model, _ = classifier.train(classifier.initialize(classifier.build_cnn2(expected), seed=3),
                                train_set, val_set,
                                classifier.TrainConfig(epochs=1, batch_size=8, seed=3))
    classifier.save_checkpoint(model, tmp_path / "expected.stbcnn")
    assert written == (tmp_path / "expected.stbcnn").read_bytes()


def _required_flags(sub: argparse.ArgumentParser) -> list[str]:
    """Values for a subcommand's required flags, so that parsing fails only on the flag under test."""
    return [flag for action in sub._actions if action.required
            for flag in (action.option_strings[0], "x")]


def _float_actions():
    _, by_name = cli.build_parser()
    for command, sub in by_name.items():
        for action in sub._actions:
            if action.type in (float, cli._finite_float):
                yield command, sub, action


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_float_flags_exit_two(tmp_path, capsys, bad):
    found = list(_float_actions())
    assert len(found) >= 10
    for command, sub, action in found:
        flag, key = action.option_strings[-1], action.option_strings[-1][2:]
        assert action.type is cli._finite_float, f"{command} {flag}"
        argv = [command, *_required_flags(sub)]
        sub.parse_args(argv[1:] + [flag, "1"])  # a finite value parses
        assert cli.main(argv + [f"{flag}={bad}"]) == 2, f"{command} {flag}"
        err = capsys.readouterr().err
        assert flag in err and "finite" in err
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key}={bad}\n")
        assert cli.main(argv + ["--config", str(config)]) == 2, f"{command} {key}"
        assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "train", "eval", "classify", "gradcheck"])
def test_threads_other_than_one_exit_two(tmp_path, capsys, command):
    _, by_name = cli.build_parser()
    argv = [command, *_required_flags(by_name[command])]
    by_name[command].parse_args(argv[1:] + ["--threads", "1"])
    assert cli.main(argv + ["--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err
    config = tmp_path / "threads.cfg"
    config.write_text("threads=2\n")
    assert cli.main(argv + ["--config", str(config)]) == 2
    assert "'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("split", "bogus"), ("baseline", "nonsense")])
def test_config_values_obey_choices(tmp_path, capsys, key, value):
    config = tmp_path / "eval.cfg"
    config.write_text(f"{key}={value}\n")
    argv = ["eval", "--dataset", str(tmp_path / "missing.bin"), "-o", str(tmp_path / "out"),
            "--config", str(config)]
    assert cli.main(argv) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
