"""Second-order correlation discriminant between AL and SM received sequences.

The statistic averages lag-1 products r(2t+d)*r(2t+1+d) at both block
alignments d in {0, 1} (the receiver does not know the block offset) and
takes the larger magnitude. The threshold has no analytic form -- the
population value of the statistic depends on the channel -- so it is
calibrated empirically by error minimization over synthetic sequences.

Two AL generators exist: the default follows the Alamouti coding matrix; the
``paper-eq7`` variant emits pairs r(2t) = h0*x0 + h1*x1, r(2t+1) =
-h0*conj(x0) + h1*conj(x1), whose population statistic at alignment 0 is
h1^2 - h0^2 for unit-energy symbols. Under the coding-matrix generator both
classes have population statistic 0 for proper QPSK, so near-chance
separation there is expected, not a defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .signal_model import (
    _MASK64,
    ChannelRealization,
    CodingScheme,
    NoiseSpec,
    ReceiveConfig,
    block_slots,
    draw_channel,
    encode,
    modulate_qpsk,
    noise_variance_for_snr,
    receive,
)

GENERATOR_VARIANTS = ("eq2", "paper-eq7")


@dataclass(frozen=True)
class CorrelationFeature:
    """Lag-1 pair correlations at both alignments; feature is the larger magnitude."""

    c_delta0: complex
    c_delta1: complex
    feature: float
    n_pairs: int


@dataclass(frozen=True)
class ThresholdRule:
    """Calibrated decision threshold with its calibration context."""

    threshold: float
    snr_db: float
    seq_len: int
    trials: int
    achieved_error: float
    degenerate: bool = False


def correlation_feature(samples) -> CorrelationFeature:
    """Average r(2t+d)*r(2t+1+d) over all in-range t, for d in {0, 1}."""
    r = np.asarray(samples, dtype=np.complex128)
    if r.ndim != 1 or r.size < 4:
        raise ShapeError(f"need a 1-D sequence of length >= 4, got shape {r.shape}")
    c = []
    for d in (0, 1):
        tail = r[d:]
        k = tail.size // 2
        c.append(complex(np.mean(tail[: 2 * k : 2] * tail[1 : 2 * k : 2])))
    feature = max(abs(c[0]), abs(c[1]))
    return CorrelationFeature(
        c_delta0=c[0], c_delta1=c[1], feature=feature, n_pairs=r.size // 2
    )


def _random_symbols(rng: np.random.Generator, n: int) -> np.ndarray:
    return modulate_qpsk(rng.integers(0, 2, size=2 * n))


def received_sequence(
    scheme: CodingScheme,
    length: int,
    rng: np.random.Generator,
    channel: ChannelRealization,
    noise: NoiseSpec,
    k1: int = 0,
    variant: str = "eq2",
    snr_db: float = 0.0,
) -> np.ndarray:
    """One received sequence with an explicit channel (constant throughout).

    ``paper-eq7`` only changes AL synthesis; SM is the same two-stream model
    either way.
    """
    if variant not in GENERATOR_VARIANTS:
        raise ParameterError(f"unknown generator variant {variant!r}")
    if length < 2:
        raise ParameterError(f"length must be >= 2, got {length}")
    if variant == "paper-eq7" and scheme == CodingScheme.AL:
        n_pairs = (length + 1) // 2
        x = _random_symbols(rng, 2 * n_pairs)
        x0, x1 = x[0::2], x[1::2]
        r = np.empty(2 * n_pairs, dtype=np.complex128)
        r[0::2] = channel.h0 * x0 + channel.h1 * x1
        r[1::2] = -channel.h0 * np.conj(x0) + channel.h1 * np.conj(x1)
        r = r[:length]
        w = rng.normal(0.0, np.sqrt(noise.variance / 2.0), size=(2, length))
        return r + w[0] + 1j * w[1]
    n_cols = length + k1
    if scheme == CodingScheme.AL:
        n_sym = n_cols + (n_cols % 2)
    else:
        n_sym = 2 * n_cols
    tx = encode(scheme, _random_symbols(rng, n_sym))
    cfg = ReceiveConfig(k1=k1, length=length, snr_db=snr_db)
    return receive(tx, channel, noise, cfg, rng)


def synth_sequence(
    scheme: CodingScheme, snr_db: float, length: int, seed: int, variant: str = "eq2"
) -> np.ndarray:
    """Random-channel sequence for calibration: channel, offset, bits, noise per seed."""
    rng = np.random.default_rng(seed)
    channel = draw_channel(rng)
    k1 = int(rng.integers(0, block_slots(scheme)))
    return received_sequence(
        scheme, length, rng, channel, noise_variance_for_snr(snr_db),
        k1=k1, variant=variant, snr_db=snr_db,
    )


def _best_threshold(feat_al: np.ndarray, feat_sm: np.ndarray) -> tuple[float, float]:
    """Midpoint threshold minimizing empirical error of 'feature > t -> AL'."""
    al = np.sort(feat_al)
    sm = np.sort(feat_sm)
    values = np.unique(np.concatenate([al, sm]))
    mids = (values[:-1] + values[1:]) / 2.0 if values.size > 1 else np.empty(0)
    candidates = np.concatenate([[0.0], mids, [values[-1]]])
    # errors: AL misses (feature <= t) plus SM hits (feature > t)
    al_miss = np.searchsorted(al, candidates, side="right")
    sm_hit = sm.size - np.searchsorted(sm, candidates, side="right")
    errors = (al_miss + sm_hit) / (al.size + sm.size)
    best = int(np.argmin(errors))
    return float(candidates[best]), float(errors[best])


def calibrate_from_features(
    feat_al, feat_sm, snr_db: float = float("nan"), seq_len: int = 0
) -> ThresholdRule:
    """Threshold selection on precomputed feature samples.

    The rule is flagged degenerate when the two samples are identical as
    multisets or no threshold beats guessing.
    """
    feat_al = np.asarray(feat_al, dtype=np.float64)
    feat_sm = np.asarray(feat_sm, dtype=np.float64)
    if feat_al.size == 0 or feat_sm.size == 0:
        raise ParameterError("need non-empty feature samples for both classes")
    degenerate = bool(np.array_equal(np.sort(feat_al), np.sort(feat_sm)))
    threshold, err = _best_threshold(feat_al, feat_sm)
    return ThresholdRule(
        threshold=threshold,
        snr_db=snr_db,
        seq_len=seq_len,
        trials=min(feat_al.size, feat_sm.size),
        achieved_error=err,
        degenerate=degenerate or err >= 0.5,
    )


def calibrate_threshold(
    snr_db: float,
    seq_len: int,
    trials: int,
    seed: int = 0,
    variant: str = "eq2",
    normalize: bool = False,
) -> ThresholdRule:
    """Pick the error-minimizing threshold over fresh AL and SM feature samples.

    ``normalize`` scales each sequence to unit mean power first, matching how
    dataset frames are stored.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    if seq_len < 4:
        raise ParameterError(f"seq_len must be >= 4, got {seq_len}")
    feats = {}
    for scheme in (CodingScheme.AL, CodingScheme.SM):
        vals = np.empty(trials)
        for t in range(trials):
            ss = np.random.SeedSequence([seed & _MASK64, int(scheme), t])
            seq = synth_sequence(
                scheme, snr_db, seq_len, int(ss.generate_state(1, np.uint64)[0]), variant
            )
            if normalize:
                power = float(np.mean(np.abs(seq) ** 2))
                if power == 0.0:
                    raise ParameterError("cannot normalize a zero-power sequence")
                seq = seq / np.sqrt(power)
            vals[t] = correlation_feature(seq).feature
        feats[scheme] = vals
    rule = calibrate_from_features(feats[CodingScheme.AL], feats[CodingScheme.SM],
                                   snr_db=snr_db, seq_len=seq_len)
    return ThresholdRule(
        threshold=rule.threshold,
        snr_db=snr_db,
        seq_len=seq_len,
        trials=trials,
        achieved_error=rule.achieved_error,
        degenerate=rule.degenerate,
    )


def classify_corr(feature, rule: ThresholdRule) -> CodingScheme:
    """feature > threshold -> AL, ties -> SM."""
    value = feature.feature if isinstance(feature, CorrelationFeature) else float(feature)
    return CodingScheme.AL if value > rule.threshold else CodingScheme.SM
