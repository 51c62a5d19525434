"""Golden values of the seed -> bytes contract.

The other equality tests compare one synthesis path with another inside the
same tree; these pin the bytes themselves, so a change to any seed, stream or
draw order shows here even when every path changes together.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest
from test_cli import _fresh_process_env

from stbcid import baseline_corr, cli, dataset
from stbcid.classifier import build_cnn2, initialize, save_checkpoint
from stbcid.dataset import DatasetConfig


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cfg, digest", [
    (DatasetConfig(snr_grid=(-4.0, 0.0, 6.5), bursts_per_cell=2, burst_len=256, seed=11),
     "46b716520e477c61d4c99979bfd27284a2e7426412ac2f7d6407b54eeac18891"),
    (DatasetConfig(snr_grid=(3.0, 15.0), bursts_per_cell=3, burst_len=301, shift=50,
                   seed=(1 << 64) + 9, normalize=False),
     "ab4b493dcf535758119704d5485280086c2a76a41ba024cc61d4e758cb79a75b"),
])
def test_dataset_bytes(tmp_path, cfg, digest):
    path = tmp_path / "d.bin"
    dataset.serialize_frames(dataset.generate_dataset(cfg), path)
    assert _sha256(path) == digest


# (seed, normalize) -> (threshold.hex(), achieved_error.hex()) at 10 dB, L=128, 200 trials
THRESHOLDS = {
    (4, False): ("0x1.6b95bc76c87b0p-2", "0x1.d47ae147ae148p-2"),
    (4, True): ("0x1.ff0a76389cdd4p-5", "0x1.ee147ae147ae1p-2"),
    ((1 << 70) + 12345, False): ("0x1.d6a138e70b4acp-5", "0x1.fd70a3d70a3d7p-2"),
    ((1 << 70) + 12345, True): ("0x1.00b3ef9af1cdcp-5", "0x1.fae147ae147aep-2"),
}


# the ids name the AL layout, eq2 (Alamouti's coding matrix), that the values hold for
@pytest.mark.parametrize("seed, normalize", list(THRESHOLDS),
                         ids=[f"{seed}-eq2-{normalize}" for seed, normalize in THRESHOLDS])
def test_calibrated_threshold(seed, normalize):
    rule = baseline_corr.calibrate_threshold(10.0, 128, 200, seed=seed, normalize=normalize)
    assert (rule.threshold.hex(), rule.achieved_error.hex()) == THRESHOLDS[seed, normalize]


def test_generate_then_eval_corr_bytes(tmp_path):
    data = tmp_path / "g.bin"
    assert cli.main(["generate", "--snr-min", "-10", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "3", "--burst-len", "512", "--seed", "21", "-o", str(data)]) == 0
    assert _sha256(data) == "4ba13731df6cba65021d8db8b27e5873211eb1459f4b8d844f0942029db9f35a"
    out = tmp_path / "ev"
    assert cli.main(["eval", "--dataset", str(data), "--baseline", "corr", "-o", str(out),
                     "--split", "all", "--calibrate-trials", "300", "--seed", "21"]) == 0
    assert (_sha256(out / "accuracy.csv")
            == "0ba5f317a665e91787ab44b1d1935c610fc054ebf88e4f2dfed25cd519da5a5e")


def _eval_cnn_argv(tmp_path) -> list[str]:
    """``eval --split all`` of an untrained CNN2 (seed 11) on the corr golden case's grid;
    15 of its 126 frames are called AL, none within 0.009 of a tie."""
    data = tmp_path / "g.bin"
    assert cli.main(["generate", "--snr-min", "-10", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "3", "--burst-len", "512", "--seed", "21", "-o", str(data)]) == 0
    checkpoint = tmp_path / "m.stbcnn"
    save_checkpoint(initialize(build_cnn2(), seed=11), checkpoint)
    return ["eval", "--dataset", str(data), "--checkpoint", str(checkpoint),
            "-o", str(tmp_path / "ev"), "--split", "all"]


def _assert_eval_cnn_bytes(out) -> None:
    assert (_sha256(out / "accuracy.csv")
            == "210dbe1c55581bbdb80d64756bff6da0a697c8d4d253c1d314e2c4cff89d2bac")
    confusions = b"".join((out / f"confusion_{snr}dB.csv").read_bytes() for snr in (-10, 0, 10))
    assert (hashlib.sha256(confusions).hexdigest()
            == "31cc44d53e0e977442beb6ca1de3cecd66ec1e20c6cf1c008812282555ed0698")


def test_eval_cnn_bytes(tmp_path):
    assert cli.main(_eval_cnn_argv(tmp_path)) == 0
    _assert_eval_cnn_bytes(tmp_path / "ev")


def test_eval_cnn_bytes_at_one_blas_thread(tmp_path):
    run = subprocess.run([sys.executable, "-m", "stbcid", *_eval_cnn_argv(tmp_path)],
                         env={**_fresh_process_env(), "OPENBLAS_NUM_THREADS": "1"},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    _assert_eval_cnn_bytes(tmp_path / "ev")


@pytest.mark.parametrize("seed, dtype, digest", [
    (3, np.float32, "81628b3cbbce887e8075ae30f9cb13eacfa67450cdb48a19f98dd23a7e90d974"),
    (3, np.float64, "3dc8d8d0a3b6d9387976b098bb82649bff29c4a9ffd2a883a0ffcc5c78e8e6dc"),
    ((1 << 64) + 5, np.float32,
     "dfe7bebd376d0c37edc9fcd8dd8cb65efeffb0c0cf9882f8fdcb4ad864ff9d97"),
], ids=["3-float32", "3-float64", "2**64+5-float32"])
def test_initial_parameters(seed, dtype, digest):
    h = hashlib.sha256()
    for p in initialize(build_cnn2(), seed=seed, dtype=dtype).net.parameters():
        h.update(p.astype(p.dtype.newbyteorder("<"), copy=False).tobytes())
    assert h.hexdigest() == digest


def test_train_bytes(tmp_path):
    data = tmp_path / "g.bin"
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "3", "--burst-len", "256", "--seed", "5", "-o", str(data)]) == 0
    out = tmp_path / "tr"
    assert cli.main(["train", "--dataset", str(data), "-o", str(out), "--epochs", "2",
                     "--batch-size", "16", "--patience", "0", "--seed", "5"]) == 0
    assert (_sha256(out / "checkpoint.stbcnn")
            == "74222ca3157090d8de15fb8a3b9114c7944281c6c6d4ae6e29506d155e22de5b")
    assert _sha256(out / "loss.csv") == (
        "69e106c62a17aeff3167182f4dcdfc3f20ea47be34ac72664c07079da83be4ca")


def test_train_bytes_without_dropout(tmp_path):
    # every ReLU's training mask is its x > 0 alone, held packed, and nothing is drawn
    data = tmp_path / "g.bin"
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "3", "--burst-len", "256", "--seed", "5", "-o", str(data)]) == 0
    out = tmp_path / "tr"
    assert cli.main(["train", "--dataset", str(data), "-o", str(out), "--epochs", "2",
                     "--batch-size", "16", "--dropout", "0", "--patience", "0",
                     "--seed", "5"]) == 0
    assert (_sha256(out / "checkpoint.stbcnn")
            == "8e58064e91a1863942392e706cb9e8a7feb79aa8cb13945e7d387ed21d1f8b22")
    assert _sha256(out / "loss.csv") == (
        "30a9d49bfe889a3aee73ce83e35dd0b1fa202fa5251264d21c0d5a629799ab15")


def _chunked_train_argv(tmp_path) -> list[str]:
    """``train`` on 60 frames in batches of 40: conv2 runs chunks of 32 and 8, then 20, so
    the weight-gradient GEMMs of the 8- and 20-element chunks split K; dropout 0.3 after
    each ReLU."""
    data = tmp_path / "g.bin"
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "10", "--burst-len", "256", "--seed", "5", "-o", str(data)]) == 0
    return ["train", "--dataset", str(data), "-o", str(tmp_path / "tr"), "--epochs", "2",
            "--batch-size", "40", "--dropout", "0.3", "--patience", "0", "--seed", "5"]


def _assert_chunked_train_bytes(out) -> None:
    assert (_sha256(out / "checkpoint.stbcnn")
            == "ad57553aa515fd9c4912aa90d56556bc962157bf36935fd25f7185f39a49d36a")
    assert _sha256(out / "loss.csv") == (
        "ab07f63561f22fe21c344c6d49554534e9b9afbc73cf88cc055b0e3930db9f4f")


def test_chunked_train_bytes(tmp_path):
    assert cli.main(_chunked_train_argv(tmp_path)) == 0
    _assert_chunked_train_bytes(tmp_path / "tr")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_chunked_train_bytes_at_blas_threads(tmp_path, threads):
    # OpenBLAS reads its thread count once, when numpy loads, so each count needs a process
    run = subprocess.run([sys.executable, "-m", "stbcid", *_chunked_train_argv(tmp_path)],
                         env={**_fresh_process_env(), "OPENBLAS_NUM_THREADS": threads},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    _assert_chunked_train_bytes(tmp_path / "tr")
