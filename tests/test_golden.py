"""Golden values of the seed -> bytes contract.

The other equality tests compare one synthesis path with another inside the
same tree; these pin the bytes themselves, so a change to any seed, stream or
draw order shows here even when every path changes together.
"""

import hashlib

import numpy as np
import pytest

from stbcid import baseline_corr, cli, dataset
from stbcid.classifier import build_cnn2, initialize
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
            == "ad73dbeecaf7b4d6acb5910b38b92272c929f734989f66d634b0a612bdc2e3d3")
    assert _sha256(out / "loss.csv") == (
        "da4aa9e7184c8015e1b0cf1d94cb4667c9fae022e236424e3d389cc6af0dde48")


def test_chunked_train_bytes(tmp_path):
    # 60 training frames in batches of 40: conv2 chunks of 16, 16 and 8, then 16 and 4;
    # dropout 0.3 after each ReLU
    data = tmp_path / "g.bin"
    assert cli.main(["generate", "--snr-min", "0", "--snr-max", "10", "--snr-step", "10",
                     "--bursts", "10", "--burst-len", "256", "--seed", "5", "-o", str(data)]) == 0
    out = tmp_path / "tr"
    assert cli.main(["train", "--dataset", str(data), "-o", str(out), "--epochs", "2",
                     "--batch-size", "40", "--dropout", "0.3", "--patience", "0",
                     "--seed", "5"]) == 0
    assert (_sha256(out / "checkpoint.stbcnn")
            == "4bb926f5deb00850ccff42c535d6d58b433d11549b475a099102a72f85b63b64")
    assert _sha256(out / "loss.csv") == (
        "82e518d6dec58c8a66c4a2cda03fdadca5616329708af42d6e1e7558d082b83f")
