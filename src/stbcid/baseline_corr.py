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

from . import seeding
from .errors import ParameterError, ShapeError
from .signal_model import (
    _MASK64,
    ChannelRealization,
    CodingScheme,
    NoiseSpec,
    block_slots,
    channel_gains,
    draw_fading,
    encode,
    mix,
    modulate_qpsk,
    noise_variance_for_snr,
    receive,  # noqa: F401 -- not called here; perfbench/spans.py patches it by name
)

# Frames scored per correlation_features call in classify_frames: bounds its
# complex temporaries (scoring all 6300 frames of the default grid at once took
# peak RSS from 67 to 78 MB in `perfbench/run.py --workload baseline`).
CORR_BLOCK = 256

# Calibration sequences synthesized per synth_batch call: bounds the block's
# temporaries at no measured cost in speed. The traced peak of
# calibrate_threshold(10, 128, 4000) is ~1.4 MB at 64, ~5.1 MB at 256, and
# ~16 MB with every trial in one block.
SYNTH_BLOCK = 64


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


def _pair_correlations(r: np.ndarray) -> np.ndarray:
    """Row-wise mean of r(2t+d)*r(2t+1+d) over in-range t: complex [2, n] (d = 0, 1) for r [n, L]."""
    c = np.empty((2, r.shape[0]), dtype=np.complex128)
    for d in (0, 1):
        k = (r.shape[1] - d) // 2
        c[d] = np.mean(r[:, d : d + 2 * k : 2] * r[:, d + 1 : d + 2 * k : 2], axis=1)
    return c


def _larger_magnitude(c: np.ndarray) -> np.ndarray:
    """max(|c0|, |c1|) per row, bit-equal to Python's ``max(abs(c0), abs(c1))``.

    ``np.hypot`` rounds like Python's complex ``abs``; ``np.abs`` on complex128
    can differ from it in the last bit. Ties and NaNs pick c0, as ``max`` does.
    """
    a0, a1 = np.hypot(c.real, c.imag)
    return np.where(a1 > a0, a1, a0)


def correlation_features(samples) -> np.ndarray:
    """Feature of each row of a complex [n, L] array; row i equals
    ``correlation_feature(samples[i]).feature`` bit for bit."""
    r = np.asarray(samples, dtype=np.complex128)
    if r.ndim != 2 or r.shape[1] < 4:
        raise ShapeError(f"need an [n, L] array with L >= 4, got shape {r.shape}")
    return _larger_magnitude(_pair_correlations(r))


def correlation_feature(samples) -> CorrelationFeature:
    """Average r(2t+d)*r(2t+1+d) over all in-range t, for d in {0, 1}."""
    r = np.asarray(samples, dtype=np.complex128)
    if r.ndim != 1 or r.size < 4:
        raise ShapeError(f"need a 1-D sequence of length >= 4, got shape {r.shape}")
    c = _pair_correlations(r[np.newaxis])
    return CorrelationFeature(
        c_delta0=complex(c[0, 0]), c_delta1=complex(c[1, 0]),
        feature=float(_larger_magnitude(c)[0]), n_pairs=r.size // 2,
    )


def _n_bits(scheme: CodingScheme, n_cols: int) -> int:
    """Bits whose symbols fill n_cols transmit slots: whole AL pairs, two SM symbols a slot."""
    return 2 * (n_cols + (n_cols % 2) if scheme == CodingScheme.AL else 2 * n_cols)


def _synth_draws(rng: np.random.Generator, scheme: CodingScheme, length: int, k1: int,
                 noise_std: float) -> tuple[np.ndarray, np.ndarray]:
    """One sequence's bits (enough to fill slots k1 .. k1+length-1), then its noise."""
    bits = rng.integers(0, 2, size=_n_bits(scheme, length + k1))
    return bits, rng.normal(0.0, noise_std, size=(2, length))


def _received(scheme: CodingScheme, bits: np.ndarray, k1: np.ndarray, h: np.ndarray,
              w: np.ndarray, variant: str) -> np.ndarray:
    """Sequences [n, L] from bits [n, B] (rows zero-padded past their own count),
    offsets k1 [n], gains h [n, 2] and noise w [n, 2, L]: encode, slice at k1, mix."""
    tx = encode(scheme, modulate_qpsk(bits), variant)
    windows = np.lib.stride_tricks.sliding_window_view(tx, w.shape[-1], axis=2)
    return mix(windows[np.arange(k1.size), :, k1], h, w)  # row i's window starts at k1[i]


def _start_slot(scheme: CodingScheme, k1: int, variant: str) -> int:
    """The ``paper-eq7`` AL generator ignores the drawn offset: its pairs start at r(0)."""
    return 0 if variant == "paper-eq7" and scheme == CodingScheme.AL else k1


def received_sequence(
    scheme: CodingScheme,
    length: int,
    rng: np.random.Generator,
    channel: ChannelRealization,
    noise: NoiseSpec,
    k1: int = 0,
    variant: str = "eq2",
) -> np.ndarray:
    """One received sequence with an explicit channel (constant throughout),
    drawn and mixed as one row of ``synth_batch``.

    ``paper-eq7`` only changes AL synthesis; SM is the same two-stream model
    either way.
    """
    if length < 2:
        raise ParameterError(f"length must be >= 2, got {length}")
    if k1 < 0:
        raise ParameterError(f"k1 must be >= 0, got {k1}")
    k1 = _start_slot(scheme, k1, variant)
    bits, w = _synth_draws(rng, scheme, length, k1, np.sqrt(noise.variance / 2.0))
    h = np.array([[channel.h0, channel.h1]], dtype=np.complex128)
    return _received(scheme, bits[np.newaxis], np.array([k1]), h, w[np.newaxis], variant)[0]


def synth_batch(
    scheme: CodingScheme, snr_db: float, length: int, seeds, variant: str = "eq2"
) -> tuple[np.ndarray, np.ndarray]:
    """Gains (h0, h1) complex [n, 2] and received sequences complex [n, length], one
    row per non-negative int seed, its row drawn by ``np.random.default_rng(seed)``."""
    return synth_from_words(scheme, snr_db, length, seeding.rng_words(seeds), variant)


def synth_from_words(
    scheme: CodingScheme, snr_db: float, length: int, words: np.ndarray, variant: str = "eq2"
) -> tuple[np.ndarray, np.ndarray]:
    """``synth_batch`` of the seeds whose ``seeding.rng_words`` are ``words`` [n, 4]: the
    one synthesis path, for calibration and dataset bursts alike.

    Each row's generator draws, in this order, the channel (powers, phases), the
    block offset k1, the bits and the noise, so a seed fully determines its row,
    whatever the other seeds. Only the draws run per row; the math runs once over
    the block.
    """
    if length < 2:
        raise ParameterError(f"length must be >= 2, got {length}")
    n = len(words)
    noise_std = np.sqrt(noise_variance_for_snr(snr_db).variance / 2.0)
    slots = block_slots(scheme)
    power, phase = np.empty((n, 2)), np.empty((n, 2))
    k1 = np.empty(n, dtype=np.intp)
    bits = np.zeros((n, _n_bits(scheme, length + slots - 1)), dtype=np.uint8)  # widest row
    w = np.empty((n, 2, length))
    for i in range(n):
        rng = seeding.generator(words[i])
        power[i], phase[i] = draw_fading(rng)
        k1[i] = offset = _start_slot(scheme, int(rng.integers(0, slots)), variant)
        row, w[i] = _synth_draws(rng, scheme, length, offset, noise_std)
        bits[i, : row.size] = row
    h = channel_gains(power, phase)
    return h, _received(scheme, bits, k1, h, w, variant)


def synth_with_channel(
    scheme: CodingScheme, snr_db: float, length: int, seed: int, variant: str = "eq2"
) -> tuple[ChannelRealization, np.ndarray]:
    """``synth_batch`` for one seed: its channel and its received sequence."""
    h, r = synth_batch(scheme, snr_db, length, [seed], variant)
    return ChannelRealization(h0=complex(h[0, 0]), h1=complex(h[0, 1])), r[0]


def synth_sequence(
    scheme: CodingScheme, snr_db: float, length: int, seed: int, variant: str = "eq2"
) -> np.ndarray:
    """Random-channel sequence for calibration: channel, offset, bits, noise per seed."""
    return synth_with_channel(scheme, snr_db, length, seed, variant)[1]


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
    dataset frames are stored. Trial t of a scheme is drawn from the seed
    ``SeedSequence([seed mod 2**64, scheme, t]).generate_state(1, np.uint64)[0]``;
    every trial's generator words are derived in one pass up front.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    if seq_len < 4:
        raise ParameterError(f"seq_len must be >= 4, got {seq_len}")
    schemes = (CodingScheme.AL, CodingScheme.SM)
    trial_seeds = seeding.generate_state(
        [seed & _MASK64, np.repeat([int(scheme) for scheme in schemes], trials),
         np.tile(np.arange(trials), len(schemes))], 1, np.uint64)[:, 0]
    words = seeding.rng_words(trial_seeds).reshape(len(schemes), trials, 4)
    feats = {}
    for scheme, scheme_words in zip(schemes, words):
        feats[scheme] = np.empty(trials)
        for start in range(0, trials, SYNTH_BLOCK):
            block = scheme_words[start : start + SYNTH_BLOCK]
            seqs = synth_from_words(scheme, snr_db, seq_len, block, variant)[1]
            if normalize:
                power = np.mean(np.abs(seqs) ** 2, axis=1)
                if (power == 0.0).any():
                    raise ParameterError("cannot normalize a zero-power sequence")
                seqs /= np.sqrt(power)[:, np.newaxis]
            feats[scheme][start : start + len(block)] = correlation_features(seqs)
    return calibrate_from_features(feats[CodingScheme.AL], feats[CodingScheme.SM],
                                   snr_db=snr_db, seq_len=seq_len)


def _decide(features, rule: ThresholdRule) -> np.ndarray:
    """The decision rule: feature > threshold -> AL (1), ties -> SM (0)."""
    return (np.asarray(features) > rule.threshold).astype(np.int64)


def classify_corr(feature, rule: ThresholdRule) -> CodingScheme:
    """One feature's class under ``rule``."""
    value = feature.feature if isinstance(feature, CorrelationFeature) else float(feature)
    return CodingScheme(int(_decide(value, rule)))


def classify_frames(frames, rule: ThresholdRule) -> np.ndarray:
    """Class of each IQ frame [N, 2, L] (rows I, Q) under ``rule``, ``CORR_BLOCK`` frames
    per feature pass; frame i's equals ``classify_corr(correlation_feature(I + jQ), rule)``."""
    frames = np.asarray(frames)
    out = np.empty(frames.shape[0], dtype=np.int64)
    for start in range(0, frames.shape[0], CORR_BLOCK):
        block = frames[start : start + CORR_BLOCK]
        feats = correlation_features(block[:, 0] + 1j * block[:, 1])
        out[start : start + CORR_BLOCK] = _decide(feats, rule)
    return out
