"""Tests for the command-line entry point: exit codes and the generate -> train -> eval path."""

import argparse
import dataclasses
import os
import pathlib
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

from stbcid import baseline_corr, classifier, cli, dataset, evaluation, tensor_nn


def test_gradcheck_exits_zero(capsys):
    assert cli.main(["gradcheck", "--nets", "3"]) == 0
    assert "all gradients within tolerance" in capsys.readouterr().out


def test_gradcheck_takes_a_seed_by_its_low_64_bits(capsys):
    # as generate, train and eval do: -1 and 2**64 - 1 draw the same nets
    assert cli.main(["gradcheck", "--seed", "-1", "--nets", "2"]) == 0
    negative = capsys.readouterr().out
    assert cli.main(["gradcheck", "--seed", str(2 ** 64 - 1), "--nets", "2"]) == 0
    assert capsys.readouterr().out == negative


def _seeded_outputs(root: pathlib.Path, seed: int, capsys) -> dict:
    """Each file that generate, a 1-epoch train and eval --baseline corr write at ``seed``,
    by its path under ``root``, and gradcheck's report; the manifest without its seed line."""
    root.mkdir()
    data, at = str(root / "d.bin"), f"--seed={seed}"
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "2", "--burst-len", "256", at, "-o", data]) == 0
    assert cli.main(["train", "--dataset", data, "-o", str(root / "train"), "--epochs", "1",
                     "--batch-size", "8", at]) == 0  # 12 train frames: the last batch ragged
    assert cli.main(["eval", "--dataset", data, "--baseline", "corr", "--calibrate-trials",
                     "200", "-o", str(root / "eval"), at]) == 0
    capsys.readouterr()
    assert cli.main(["gradcheck", "--nets", "3", at]) == 0
    outputs = {str(path.relative_to(root)): path.read_bytes()
               for path in sorted(root.rglob("*")) if path.is_file()}
    manifest = outputs.pop("d.bin.manifest").decode().splitlines()
    assert f"seed={seed}" in manifest
    outputs["manifest"] = [line for line in manifest if not line.startswith("seed=")]
    outputs["gradcheck"] = capsys.readouterr().out
    return outputs


@pytest.mark.parametrize("alias", [5 + 2 ** 64, 5 - 2 ** 64])
def test_a_seed_and_its_alias_mod_2_64_write_the_same_bytes(tmp_path, capsys, alias):
    # burst seeds, the split, weights, batch order, dropout, calibration trials, micro-nets
    outputs = _seeded_outputs(tmp_path / "5", 5, capsys)
    assert {"d.bin", "train/checkpoint.stbcnn", "train/loss.csv", "eval/accuracy.csv"} <= set(
        outputs)
    assert _seeded_outputs(tmp_path / "alias", alias, capsys) == outputs


def test_gradcheck_fails_on_a_wrong_gradient(monkeypatch, capsys):
    backward = tensor_nn.Dense.backward

    def scaled(self, grad, input_grad=True):  # every dense weight gradient 1 % too large
        out = backward(self, grad, input_grad)
        self.gw *= 1.01
        return out

    monkeypatch.setattr(tensor_nn.Dense, "backward", scaled)
    assert cli.main(["gradcheck", "--nets", "2"]) == 1
    err = capsys.readouterr().err
    assert "FAIL net" in err and "tolerance 0.0001" in err


def _fresh_process_env() -> dict[str, str]:
    """The environment for ``python -m stbcid`` in a new process that imports this source tree."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_python_dash_m_runs_the_cli():
    run = subprocess.run([sys.executable, "-m", "stbcid", "gradcheck", "--nets", "2"],
                         env=_fresh_process_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "all gradients within tolerance" in run.stdout


def test_a_second_main_call_starts_from_the_defaults(tmp_path):
    # one parser serves every main call in a process, so nothing parsed for a call may
    # reach the next: plain generate after --no-normalize writes what a new process writes
    grid = ["--snr-min", "0", "--snr-max", "10", "--snr-step", "10", "--bursts", "2",
            "--burst-len", "256"]
    raw, second, fresh = (tmp_path / d for d in ("raw", "second", "fresh"))
    for d in (raw, second, fresh):
        d.mkdir()
    assert cli.main(["generate", *grid, "--no-normalize", "-o", str(raw / "d.bin")]) == 0
    assert cli.main(["generate", *grid, "-o", str(second / "d.bin")]) == 0
    run = subprocess.run([sys.executable, "-m", "stbcid", "generate", *grid,
                          "-o", str(fresh / "d.bin")],
                         env=_fresh_process_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    for name in ("d.bin", "d.bin.manifest"):
        assert (second / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (raw / "d.bin").read_bytes() != (second / "d.bin").read_bytes()  # the flag acts


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


def test_train_and_eval_share_the_split(tmp_path, monkeypatch, capsys):
    data = str(tmp_path / "grid.bin")
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "4", "--burst-len", "256", "-o", data]) == 0
    seen = []  # the val frames each command scores
    train, accuracy_vs_snr = classifier.train, evaluation.accuracy_vs_snr

    def traced_train(model, train_set, val_set, cfg):
        seen.append(val_set.frames.tobytes())
        return train(model, train_set, val_set, cfg)

    def traced_accuracy(score_fn, frames, **kwargs):
        seen.append(frames.frames.tobytes())
        return accuracy_vs_snr(score_fn, frames, **kwargs)

    monkeypatch.setattr(classifier, "train", traced_train)
    monkeypatch.setattr(evaluation, "accuracy_vs_snr", traced_accuracy)
    for seed in ("1", "2"):
        assert cli.main(["train", "--dataset", data, "-o", str(tmp_path / seed), "--epochs", "1",
                         "--batch-size", "32", "--seed", seed]) == 0
        assert "split: 8 train / 8 val bursts (dataset seed 7)" in capsys.readouterr().out
    assert cli.main(["eval", "--dataset", data, "--checkpoint",
                     str(tmp_path / "1" / "checkpoint.stbcnn"), "-o", str(tmp_path / "eval")]) == 0
    assert len(seen) == 3 and seen[0] == seen[1] == seen[2]


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

    curve, _ = evaluation.accuracy_vs_snr(lambda a: preds, frames)
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
    assert (len(frames) % baseline_corr.CORR_BLOCK
            and len(frames) > baseline_corr.CORR_BLOCK)  # a ragged last block
    feats = [baseline_corr.correlation_feature(f[0] + 1j * f[1]) for f in frames.frames]

    def expected_csv(rule):
        preds = np.array([int(baseline_corr.classify_corr(f, rule)) for f in feats])
        curve, _ = evaluation.accuracy_vs_snr(lambda a: preds, frames)
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
    tie = dataclasses.replace(rule, threshold=feats[300])
    monkeypatch.setattr(baseline_corr, "calibrate_threshold", lambda *args, **kwargs: tie)
    assert eval_csv("tie") == expected_csv(tie)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    data = str(tmp_path_factory.mktemp("tiny") / "tiny.bin")
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "2", "--burst-len", "256", "-o", data]) == 0
    return data


DATA, OUT = "<dataset>", "<out>"


# the offending flag comes last; the error must name it
@pytest.mark.parametrize("argv", [
    ["train", "--dataset", DATA, "-o", OUT, "--bogus"],
    ["gradcheck", "--nets", "0"],
    ["train", "--dataset", DATA, "-o", OUT, "--lr", "-1"],
    ["train", "--dataset", DATA, "-o", OUT, "--lr", "-1e-3"],  # parsed as a number
    ["train", "--dataset", DATA, "-o", OUT, "--dropout", "1.0"],
    ["train", "--dataset", DATA, "-o", OUT, "--patience", "-1"],
    ["train", "--dataset", DATA, "-o", OUT, "--epochs", "0"],
    ["train", "--dataset", DATA, "-o", OUT, "--batch-size", "0"],
    # a checkpoint stores the rate as float32 and reads it back to 6 decimals
    ["train", "--dataset", DATA, "-o", OUT, "--dropout", "0.1234567"],
    ["eval", "--dataset", DATA, "-o", OUT, "--baseline", "corr", "--val-fraction", "1.5"],
    ["eval", "--dataset", DATA, "-o", OUT, "--baseline", "corr", "--calibrate-trials", "5"],
    ["generate", "-o", OUT, "--bursts", "0"],
    ["generate", "-o", OUT, "--burst-len", "100"],
    # 6 points on 3 centi-dB labels: their cells would merge on disk
    ["generate", "-o", OUT, "--snr-min", "0", "--snr-max", "0.02", "--snr-step", "0.004"],
    # 10^9 points, nearly all beyond the storable +-327.67 dB
    ["generate", "-o", OUT, "--snr-min", "0", "--snr-step", "1e-3", "--snr-max", "1e6"],
    # storable bounds, but more points than int16 has labels
    ["generate", "-o", OUT, "--snr-min", "-300", "--snr-max", "300", "--snr-step", "1e-3"],
    # flags that the chosen eval path does not read, rejected before any file is opened
    ["eval", "--dataset", DATA, "-o", OUT, "--checkpoint", "missing.stbcnn",
     "--calibrate-trials", "5"],
    ["eval", "--dataset", DATA, "-o", OUT, "--baseline", "corr", "--checkpoint", "missing.stbcnn"],
    # the default value, still not read by a CNN eval
    ["eval", "--dataset", DATA, "-o", OUT, "--checkpoint", "missing.stbcnn",
     "--calibrate-trials", "2000"],
    ["eval", "--dataset", DATA, "-o", OUT, "--baseline", "corr", "--split", "bogus"],
    ["eval", "--dataset", DATA, "-o", OUT, "--baseline", "nonsense"],
    # stable ids: 11, 12 and 20 went with their flags
], ids=[f"argv{i}" for i in (*range(11), *range(13, 20), *range(21, 24))])
def test_bad_flags_exit_two(argv, tiny_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [tiny_dataset if a == DATA else str(out) if a == OUT else a for a in argv]
    assert cli.main(argv) == 2
    flag = [a for a in argv if a.startswith("--")][-1]
    assert flag in capsys.readouterr().err
    assert not out.exists()  # nothing written, no output directory made


def _small_model(units=2, width=dataset.FRAME_LEN) -> classifier.Model:
    """A flatten-dense-softmax model with any number of outputs and any frame width."""
    spec = classifier.ModelSpec(
        layers=(tensor_nn.LayerSpec("flatten"), tensor_nn.LayerSpec("dense", units=units),
                tensor_nn.LayerSpec("softmax")),
        input_shape=(1, 2, width),
    )
    return classifier.Model(spec=spec, net=tensor_nn.Network(spec.layers, spec.input_shape,
                                                             np.random.default_rng(0)))


def _assert_exits_one(argv, capsys, out=None):
    assert cli.main(argv) == 1  # returns: no traceback escapes
    assert "error:" in capsys.readouterr().err
    assert out is None or not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging step overflows on purpose
def test_diverging_training_exits_one_without_a_checkpoint(tiny_dataset, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", tiny_dataset, "-o", str(out), "--epochs", "3",
                     "--batch-size", "8", "--lr", "1e20"]) == 1
    assert "epoch 1: loss is not finite" in capsys.readouterr().err
    assert not (out / "checkpoint.stbcnn").exists()


@pytest.mark.parametrize("units, width", [(1, dataset.FRAME_LEN), (4, dataset.FRAME_LEN), (2, 64)])
def test_checkpoint_that_is_not_a_frame_classifier_exits_one(tiny_dataset, tmp_path, capsys,
                                                              units, width):
    checkpoint = str(tmp_path / "m.stbcnn")
    classifier.save_checkpoint(_small_model(units, width), checkpoint)
    out = tmp_path / "out"
    for split in ("val", "all"):
        _assert_exits_one(["eval", "--dataset", tiny_dataset, "--checkpoint", checkpoint,
                           "-o", str(out), "--split", split], capsys, out)
    _assert_exits_one(["classify", "--checkpoint", checkpoint, "--input", tiny_dataset], capsys)


def test_frames_of_another_width_exit_one(tiny_dataset, tmp_path, capsys):
    checkpoint = str(tmp_path / "m.stbcnn")
    classifier.save_checkpoint(_small_model(), checkpoint)
    n = len(dataset.deserialize_frames(tiny_dataset))
    narrow = dataset.FrameSet(frames=np.ones((n, 2, 64), np.float32),
                              schemes=np.zeros(n, np.uint8), snrs_db=np.zeros(n))
    binary, text = str(tmp_path / "narrow.bin"), str(tmp_path / "narrow.csv")
    dataset.serialize_frames(narrow, binary)
    dataset.export_frames_csv(narrow, text)
    for path in (binary, text):
        _assert_exits_one(["classify", "--checkpoint", checkpoint, "--input", path], capsys)
    # the same frame count under a 128-sample manifest: the file does not match it
    shutil.copy(tiny_dataset + ".manifest", binary + ".manifest")
    out = tmp_path / "out"
    _assert_exits_one(["eval", "--dataset", binary, "--checkpoint", checkpoint, "-o", str(out)],
                      capsys, out)
    _assert_exits_one(["eval", "--dataset", binary, "--baseline", "corr", "-o", str(out),
                       "--calibrate-trials", "100"], capsys, out)


@pytest.mark.parametrize("cell, bad, column", [
    (1, "-4", "snr_db"),
    (5, "0.1", "i3"),  # not a float32 value
    (0, "01", "scheme"),
])
def test_frames_csv_cell_not_as_written_exits_one(tiny_dataset, tmp_path, capsys,
                                                  cell, bad, column):
    checkpoint = str(tmp_path / "m.stbcnn")
    classifier.save_checkpoint(_small_model(), checkpoint)
    text = tmp_path / "frames.csv"
    dataset.export_frames_csv(dataset.deserialize_frames(tiny_dataset), text)
    lines = text.read_text().splitlines()
    cells = lines[3].split(",")
    cells[cell] = bad
    lines[3] = ",".join(cells)
    text.write_text("\n".join(lines) + "\n")
    assert cli.main(["classify", "--checkpoint", checkpoint, "--input", str(text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"column {column!r} reads {bad!r}" in err
    assert "at line 4" in err


@pytest.mark.parametrize("content", [
    "scheme,snr_db\n".encode("utf-16"),  # starts with the bytes ff fe
    b"scheme," + b"0" * (1 << 20) + b"\n",  # a cell beyond the csv module's field limit
], ids=["utf-16", "1-MB-cell"])
def test_frames_csv_that_is_not_text_exits_one(tmp_path, capsys, content):
    checkpoint = str(tmp_path / "m.stbcnn")
    classifier.save_checkpoint(_small_model(), checkpoint)
    text = tmp_path / "frames.csv"
    text.write_bytes(content)
    assert cli.main(["classify", "--checkpoint", checkpoint, "--input", str(text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{text}: not a frames CSV" in err


def test_manifest_that_is_not_text_exits_one(tiny_dataset, tmp_path, capsys):
    data = str(tmp_path / "d.bin")
    shutil.copy(tiny_dataset, data)
    text = pathlib.Path(tiny_dataset + ".manifest").read_text()
    pathlib.Path(data + ".manifest").write_bytes(text.encode("utf-16"))
    out = tmp_path / "out"
    assert cli.main(["eval", "--dataset", data, "--baseline", "corr", "-o", str(out),
                     "--calibrate-trials", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{data}.manifest: manifest is not text" in err
    assert not out.exists()


def _limit_address_space():  # in the child only: about 3 GB of address space
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


# the largest --bursts the default grid takes: 21 SNRs x 2 schemes, each burst 1024
# samples of at most 64 bytes and 15 frames of at most 2048 bytes in any array
MOST_BURSTS = ((1 << 62) - 1) // (42 * (64 * 1024 + 2048 * 15))


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--bursts", "100000000"], None),  # 31.3 GiB of burst seeds
    (["generate", "--bursts", str(MOST_BURSTS)], None),
    (["generate", "--bursts", str(MOST_BURSTS + 1)], "--bursts"),
    (["generate", "--bursts", "99999999999999999999"], "--bursts"),  # beyond int64
    (["generate", "--bursts", str(2 ** 62)], "--bursts"),
    (["generate", "--snr-min", "0", "--snr-max", "0", "--bursts", "2",
      "--burst-len", str(2 ** 50)], None),
    (["generate", "--burst-len", str(2 ** 60)], "--burst-len"),
    (["eval", "--calibrate-trials", "100000000000"], None),  # 1.46 TiB of trial seeds
    (["eval", "--calibrate-trials", str(2 ** 55 - 1)], None),
    (["eval", "--calibrate-trials", str(2 ** 55)], "--calibrate-trials"),
    (["eval", "--calibrate-trials", str(2 ** 62)], "--calibrate-trials"),
    (["eval", "--calibrate-trials", str(2 ** 63)], "--calibrate-trials"),
], ids=["bursts-1e8", "bursts-most", "bursts-over", "bursts-20-digits", "bursts-2**62",
        "burst-len-2**50", "burst-len-2**60", "trials-1e11", "trials-most", "trials-2**55",
        "trials-2**62", "trials-2**63"])
def test_size_flag_beyond_memory(tiny_dataset, tmp_path, argv, flag):
    # below the array bound the arrays are sized and the allocation fails (exit 1); above
    # it the flag is refused before numpy's size arithmetic could overflow (exit 2)
    out = tmp_path / "out"
    command, *flags = argv
    where = ["--dataset", tiny_dataset, "--baseline", "corr"] if command == "eval" else []
    env = {**_fresh_process_env(), "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-m", "stbcid", command, *where, *flags, "-o", str(out)],
                         env=env, capture_output=True, text=True, timeout=120,
                         preexec_fn=_limit_address_space)
    assert "Traceback" not in run.stderr
    if flag is None:
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: Unable to allocate")
    else:
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith(f"usage error: {flag}: ")
    assert list(tmp_path.iterdir()) == []  # nothing written: no dataset, manifest or out dir


@pytest.mark.parametrize("key, value", [
    ("bursts_per_cell", "three"),
    ("snr_grid", "a,b"),
    ("normalize", "2"),  # read as True once, so it would not round-trip
    ("normalize", "true"),
    ("bursts_per_cell", "0_2"),  # int() reads these as the written 2
    ("bursts_per_cell", " +2"),
    ("seed", "07"),
    ("snr_grid", "0,10.0"),  # float() reads "0" as the written "0.0"
])
def test_malformed_manifest_value_exits_one(tiny_dataset, tmp_path, capsys, key, value):
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in pathlib.Path(tiny_dataset + ".manifest").read_text().splitlines()]
    _assert_manifest_rejected(tiny_dataset, tmp_path, capsys, lines, key)


@pytest.mark.parametrize("extra, key", [
    ("seed=9", "seed"),  # a repeated key would change the split
    ("seed=7", "seed"),  # even with the written value
    ("manifest_version=1", "manifest_version"),  # a duplicated line
    ("snr_step=2.0", "snr_step"),
])
def test_manifest_extra_key_exits_one(tiny_dataset, tmp_path, capsys, extra, key):
    lines = pathlib.Path(tiny_dataset + ".manifest").read_text().splitlines()
    assert "seed=7" in lines and not any(line.startswith("snr_step=") for line in lines)
    _assert_manifest_rejected(tiny_dataset, tmp_path, capsys, lines + [extra], key)


def test_manifest_whose_frame_count_is_not_its_config_exits_one(tiny_dataset, tmp_path, capsys):
    # read as written, 192-sample bursts of 2 windows would cut the file's 3-window bursts
    # into pseudo-bursts, and the split could put windows of one burst on both sides
    lines = pathlib.Path(tiny_dataset + ".manifest").read_text().splitlines()
    assert "burst_len=256" in lines and "frames=24" in lines
    lines = [line.replace("burst_len=256", "burst_len=192") for line in lines]
    _assert_manifest_rejected(tiny_dataset, tmp_path, capsys, lines, "frames")


def _assert_manifest_rejected(tiny_dataset, tmp_path, capsys, lines, key):
    """train and eval on the tiny dataset under these manifest lines exit 1 naming key."""
    data = str(tmp_path / "d.bin")
    shutil.copy(tiny_dataset, data)
    pathlib.Path(data + ".manifest").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    for argv in (["train", "--dataset", data, "-o", str(out), "--epochs", "1"],
                 ["eval", "--dataset", data, "--baseline", "corr", "-o", str(out),
                  "--calibrate-trials", "100"]):
        assert cli.main(argv) == 1  # returns: no traceback escapes
        err = capsys.readouterr().err
        assert "error:" in err and repr(key) in err and "Traceback" not in err
        assert not out.exists()


def test_classify_prints_each_frame_decision(tiny_dataset, tmp_path, capsys):
    frames = dataset.deserialize_frames(tiny_dataset)
    model = _small_model()
    # output bias set so that the decisions split the frames
    probs = classifier.predict_batch(model, frames.frames)
    model.net.layers[-2].b[0] += np.median(np.log(probs[:, 1]) - np.log(probs[:, 0]))
    checkpoint = str(tmp_path / "m.stbcnn")
    classifier.save_checkpoint(model, checkpoint)
    text = str(tmp_path / "frames.csv")
    dataset.export_frames_csv(frames, text)
    printed = []
    for path in (tiny_dataset, text):
        assert cli.main(["classify", "--checkpoint", checkpoint, "--input", path]) == 0
        printed.append(capsys.readouterr().out.splitlines())
    assert printed[0] == printed[1] and len(printed[0]) == len(frames)
    probs = classifier.predict_batch(classifier.load_checkpoint(checkpoint), frames.frames)
    labels = classifier.decide(probs)
    assert 0 < labels.sum() < len(labels)
    for i, (line, (p_sm, p_al), label) in enumerate(zip(printed[0], probs, labels)):
        assert line == f"{i},{p_sm:.6f},{p_al:.6f},{evaluation.CLASS_NAMES[label]}"


@pytest.fixture
def overflowing_checkpoint(tmp_path):
    """A CNN2 checkpoint whose forward overflows to NaN: every weight 3e38 and every bias 0,
    all finite, so ``load_checkpoint`` accepts it."""
    model = classifier.initialize(classifier.build_cnn2(), seed=1)
    for layer in model.net.layers:
        if hasattr(layer, "w"):
            layer.w[...] = 3e38
            layer.b[...] = 0.0
    path = str(tmp_path / "overflow.stbcnn")
    classifier.save_checkpoint(model, path)
    return path


def test_eval_refuses_a_non_finite_score(tiny_dataset, overflowing_checkpoint, tmp_path,
                                         capsys):
    # no numpy warning escapes either: pyproject.toml turns every warning into an error
    frames, cfg = cli._load_dataset(tiny_dataset)
    train, val = dataset.split_train_val(frames, seed=cfg.seed)
    for split, side in (("all", frames), ("val", val), ("train", train)):
        out = tmp_path / f"eval-{split}"
        assert cli.main(["eval", "--dataset", tiny_dataset, "--checkpoint",
                         overflowing_checkpoint, "-o", str(out), "--split", split]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        # the burst id counts the file's bursts, so it finds the frame in the file
        assert printed.err == (f"error: frame 0 of {len(side)} (burst {side.burst_ids[0]}, "
                               f"{side.snrs_db[0]:g} dB): non-finite score nan\n")
        assert not out.exists()
    assert train.burst_ids[0] != 0  # a side's frame 0 need not be the file's burst 0


def test_classify_refuses_non_finite_probabilities(tiny_dataset, overflowing_checkpoint, capsys):
    assert cli.main(["classify", "--checkpoint", overflowing_checkpoint,
                     "--input", tiny_dataset]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""  # no frame line before the error
    assert printed.err == "error: frame 0 of 24 has non-finite probabilities P_SM=nan, P_AL=nan\n"


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
    # the library path with the same spec trains the same weights; the file's
    # manifest seed (the default 7), not --seed 3, draws the split
    cfg, _ = dataset.read_manifest(data + ".manifest")
    frames = dataset.assign_burst_ids(dataset.deserialize_frames(data), cfg)
    train_set, val_set = dataset.split_train_val(frames, seed=cfg.seed)
    model, _ = classifier.train(classifier.initialize(classifier.build_cnn2(expected), seed=3),
                                train_set, val_set,
                                classifier.TrainConfig(epochs=1, batch_size=8, seed=3))
    classifier.save_checkpoint(model, tmp_path / "expected.stbcnn")
    assert written == (tmp_path / "expected.stbcnn").read_bytes()


def _required_flags(sub: argparse.ArgumentParser) -> list[str]:
    """Values for a subcommand's required flags, so that parsing fails only on the flag under test."""
    return [flag for action in sub._actions if action.required
            for flag in (action.option_strings[0], "x")]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    subs, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices


def _float_actions():
    for command, sub in _subparsers().items():
        for action in sub._actions:
            if action.type in (float, cli._finite_float):
                yield command, sub, action


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_float_flags_exit_two(capsys, bad):
    found = list(_float_actions())
    assert len(found) >= 5
    for command, sub, action in found:
        flag = action.option_strings[-1]
        assert action.type is cli._finite_float, f"{command} {flag}"
        argv = [command, *_required_flags(sub)]
        sub.parse_args(argv[1:] + [flag, "1"])  # a finite value parses
        assert cli.main(argv + [f"{flag}={bad}"]) == 2, f"{command} {flag}"
        err = capsys.readouterr().err
        assert flag in err and "finite" in err


def test_negative_numbers_in_exponent_form_parse(tmp_path):
    for command, sub, action in _float_actions():  # as a separate word, on every subcommand
        args = sub.parse_args([*_required_flags(sub), action.option_strings[-1], "-2.5E-1"])
        assert getattr(args, action.dest) == -0.25, f"{command} {action.option_strings[-1]}"
    written = []
    for value in ("-2e1", "-20"):
        data = tmp_path / f"grid{value}.bin"
        assert cli.main(["generate", "--snr-min", value, "--snr-max", "0", "--snr-step", "10",
                         "--bursts", "2", "--burst-len", "256", "-o", str(data)]) == 0
        written.append((data.read_bytes(), pathlib.Path(f"{data}.manifest").read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize("bad", ["-inf", "-Infinity", "-NaN"])
def test_non_finite_negative_word_gets_the_finite_message(capsys, bad):
    for command, sub, action in _float_actions():  # as a separate word, not --flag=value
        flag = action.option_strings[-1]
        assert cli.main([command, *_required_flags(sub), flag, bad]) == 2, f"{command} {flag}"
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a finite number, got {bad!r}" in err, err


@pytest.mark.parametrize("command", ["generate", "train", "eval", "classify", "gradcheck"])
def test_threads_other_than_one_exit_two(capsys, command):
    sub = _subparsers()[command]
    argv = [command, *_required_flags(sub)]
    sub.parse_args(argv[1:] + ["--threads", "1"])
    assert cli.main(argv + ["--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err


LONG_OPTIONS = {
    "generate": {"--snr-min", "--snr-max", "--snr-step", "--bursts", "--burst-len",
                 "--no-normalize", "--out", "--seed"},
    "train": {"--dataset", "--out-dir", "--epochs", "--batch-size", "--lr", "--dropout",
              "--patience", "--seed"},
    "eval": {"--dataset", "--checkpoint", "--out-dir", "--split", "--baseline",
             "--calibrate-trials", "--seed"},
    "classify": {"--checkpoint", "--input"},
    "gradcheck": {"--nets", "--seed"},
}


def test_each_subcommand_takes_exactly_its_long_options(tmp_path, capsys):
    # a new option is an edit here; a flag can be given only on the command line
    subs = _subparsers()
    assert subs.keys() == LONG_OPTIONS.keys()
    config = tmp_path / "seed.cfg"
    config.write_text("seed=3\n")
    for command, sub in subs.items():
        options = {opt for action in sub._actions for opt in action.option_strings
                   if opt.startswith("--")}
        assert options == LONG_OPTIONS[command] | {"--help", "--threads"}, command
        assert cli.main([command, *_required_flags(sub), "--config", str(config)]) == 2, command
        assert "unrecognized arguments: --config" in capsys.readouterr().err, command
