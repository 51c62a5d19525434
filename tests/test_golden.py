"""Golden values of the seed -> bytes contract.

The other equality tests compare one synthesis path with another inside the
same tree; these pin the bytes themselves, so a change to any seed, stream or
draw order shows here even when every path changes together.
"""

import hashlib

import pytest

from stbcid import baseline_corr, cli, dataset
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


# (seed, variant, normalize) -> (threshold.hex(), achieved_error.hex()) at 10 dB, L=128, 200 trials
THRESHOLDS = {
    (4, "eq2", False): ("0x1.6b95bc76c87b0p-2", "0x1.d47ae147ae148p-2"),
    (4, "eq2", True): ("0x1.ff0a76389cdd4p-5", "0x1.ee147ae147ae1p-2"),
    (4, "paper-eq7", False): ("0x1.2520ac09edbc0p-1", "0x1.0000000000000p-4"),
    (4, "paper-eq7", True): ("0x1.32542bbedeafcp-2", "0x1.0a3d70a3d70a4p-5"),
    ((1 << 70) + 12345, "eq2", False): ("0x1.d6a138e70b4acp-5", "0x1.fd70a3d70a3d7p-2"),
    ((1 << 70) + 12345, "eq2", True): ("0x1.00b3ef9af1cdcp-5", "0x1.fae147ae147aep-2"),
    ((1 << 70) + 12345, "paper-eq7", False): ("0x1.3f7001f450e62p-1", "0x1.d70a3d70a3d71p-4"),
    ((1 << 70) + 12345, "paper-eq7", True): ("0x1.09b5a27482b0ap-2", "0x1.c28f5c28f5c29p-5"),
}


@pytest.mark.parametrize("seed, variant, normalize", list(THRESHOLDS))
def test_calibrated_threshold(seed, variant, normalize):
    rule = baseline_corr.calibrate_threshold(10.0, 128, 200, seed=seed, variant=variant,
                                             normalize=normalize)
    assert (rule.threshold.hex(), rule.achieved_error.hex()) == THRESHOLDS[seed, variant, normalize]


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
