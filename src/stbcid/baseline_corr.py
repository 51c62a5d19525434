"""Second-order correlation discriminant between AL and SM received sequences.

The statistic averages lag-1 products r(2t+d)*r(2t+1+d) at both block
alignments d in {0, 1} (the receiver does not know the block offset) and
takes the larger magnitude. The threshold has no analytic form -- the
population value of the statistic depends on the channel -- so it is
calibrated empirically by error minimization over synthetic sequences.

AL follows the Alamouti coding matrix: r(2t) = h0*x0 + h1*x1 and r(2t+1) =
-h0*conj(x1) + h1*conj(x0). The pair product r(2t)*r(2t+1) is then
h0*h1*(|x0|^2 - |x1|^2), which is 0 for constant-modulus QPSK, plus terms in
x0*conj(x1) and x1*conj(x0) that average to 0; products across blocks average
to 0 for proper QPSK. So both classes have population statistic 0, and
near-chance separation is expected, not a defect. The pairs as the paper's
eq. (7) prints them, r(2t+1) = -h0*conj(x0) + h1*conj(x1), would put
-h0^2*|x0|^2 + h1^2*|x1|^2 into the product instead, so the statistic would be
h1^2 - h0^2 at alignment 0; that layout is not an orthogonal code, and the
synthesis does not offer it. This module holds the statistic and its calibration only;
its sequences come from ``signal_model.synth_from_words``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import ParameterError, ShapeError
from .signal_model import (
    _MAX_ARRAY_BYTES,
    _SAMPLE_BYTES,
    CodingScheme,
    encode,  # noqa: F401 -- not called here; perfbench/spans.py patches it by name
    receive,  # noqa: F401 -- likewise
    synth_from_words,
)

# Frames scored per correlation_features call in frame_scores: bounds its
# complex temporaries (scoring all 6300 frames of the default grid at once took
# peak RSS from 67 to 78 MB in `perfbench/run.py --workload baseline`).
CORR_BLOCK = 256

# Calibration sequences synthesized per synth_from_words call: bounds the block's
# temporaries at no measured cost in speed. The traced peak of
# calibrate_threshold(10, 128, 4000) is 1.48 MB at 64, 4.25 MB at 256, and
# 58.8 MB with every trial in one block.
SYNTH_BLOCK = 64


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
        np.add.reduce(r[:, d : d + 2 * k : 2] * r[:, d + 1 : d + 2 * k : 2], axis=1, out=c[d])
        c[d] /= k  # np.mean's own two steps, without its Python overhead
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
    ``correlation_feature(samples[i])`` bit for bit."""
    r = np.asarray(samples, dtype=np.complex128)
    if r.ndim != 2 or r.shape[1] < 4:
        raise ShapeError(f"need an [n, L] array with L >= 4, got shape {r.shape}")
    return _larger_magnitude(_pair_correlations(r))


def correlation_feature(samples) -> float:
    """The larger magnitude of the means of r(2t+d)*r(2t+1+d) over all in-range t,
    d in {0, 1}, for one sequence."""
    r = np.asarray(samples, dtype=np.complex128)
    if r.ndim != 1 or r.size < 4:
        raise ShapeError(f"need a 1-D sequence of length >= 4, got shape {r.shape}")
    return float(_larger_magnitude(_pair_correlations(r[np.newaxis]))[0])


def synth_sequence(scheme: CodingScheme, snr_db: float, length: int, seed: int) -> np.ndarray:
    """One seed's random-channel received sequence: row 0 of ``synth_from_words``."""
    return synth_from_words(scheme, snr_db, length, seeding.rng_words([seed]))[1][0]


def calibrate_from_features(feat_al, feat_sm, snr_db: float = float("nan"),
                            seq_len: int = 0) -> ThresholdRule:
    """Midpoint threshold minimizing the empirical error of 'feature > t -> AL' on feature
    samples; degenerate if none beats guessing, as for identical multisets (0.5 at every t)."""
    al = np.sort(np.asarray(feat_al, dtype=np.float64))
    sm = np.sort(np.asarray(feat_sm, dtype=np.float64))
    if al.size == 0 or sm.size == 0:
        raise ParameterError("need non-empty feature samples for both classes")
    values = np.unique(np.concatenate([al, sm]))
    mids = (values[:-1] + values[1:]) / 2.0 if values.size > 1 else np.empty(0)
    candidates = np.concatenate([[0.0], mids, [values[-1]]])
    # errors: AL misses (feature <= t) plus SM hits (feature > t)
    al_miss = np.searchsorted(al, candidates, side="right")
    sm_hit = sm.size - np.searchsorted(sm, candidates, side="right")
    errors = (al_miss + sm_hit) / (al.size + sm.size)
    best = int(np.argmin(errors))
    err = float(errors[best])
    return ThresholdRule(threshold=float(candidates[best]), snr_db=snr_db, seq_len=seq_len,
                         trials=min(al.size, sm.size), achieved_error=err, degenerate=err >= 0.5)


def calibrate_threshold(
    snr_db: float,
    seq_len: int,
    trials: int,
    seed: int = 0,
    normalize: bool = False,
) -> ThresholdRule:
    """Pick the error-minimizing threshold over fresh AL and SM feature samples.

    ``normalize`` scales each sequence to unit mean power first, matching how
    dataset frames are stored. Trial t of a scheme is drawn from the seed
    ``seeding.derive(seed, scheme, t)``; every trial's generator words are derived
    in one pass up front.
    """
    if not 100 <= trials < _MAX_ARRAY_BYTES // (2 * _SAMPLE_BYTES):  # 2 x trials seeds
        raise ParameterError(f"trials must be >= 100 and < 2**55, got {trials}")
    if seq_len < 4:
        raise ParameterError(f"seq_len must be >= 4, got {seq_len}")
    schemes = (CodingScheme.AL, CodingScheme.SM)
    trial_seeds = seeding.derive(seed, np.repeat([int(scheme) for scheme in schemes], trials),
                                 np.tile(np.arange(trials), len(schemes)))
    words = seeding.rng_words(trial_seeds).reshape(len(schemes), trials, 4)
    feats = {}
    for scheme, scheme_words in zip(schemes, words):
        feats[scheme] = np.empty(trials)
        for start in range(0, trials, SYNTH_BLOCK):
            block = scheme_words[start : start + SYNTH_BLOCK]
            seqs = synth_from_words(scheme, snr_db, seq_len, block)[1]
            if normalize:
                power = np.mean(np.abs(seqs) ** 2, axis=1)
                if (power == 0.0).any():
                    raise ParameterError("cannot normalize a zero-power sequence")
                seqs /= np.sqrt(power)[:, np.newaxis]
            feats[scheme][start : start + len(block)] = correlation_features(seqs)
    return calibrate_from_features(feats[CodingScheme.AL], feats[CodingScheme.SM],
                                   snr_db=snr_db, seq_len=seq_len)


def classify_corr(feature: float, rule: ThresholdRule) -> CodingScheme:
    """One feature's class under ``rule``: feature > threshold -> AL, ties -> SM."""
    return CodingScheme(int(feature > rule.threshold))


def frame_scores(frames, rule: ThresholdRule) -> np.ndarray:
    """Score ``feature - threshold`` of each IQ frame [N, 2, L] (rows I, Q), from
    ``CORR_BLOCK`` frames' ``correlation_features`` at a time. A score is > 0 exactly
    where ``classify_corr`` calls the frame's feature AL: for finite floats, IEEE
    subtraction gives 0 only for equal operands and never flips their order."""
    frames = np.asarray(frames)
    out = np.empty(frames.shape[0])
    r = np.empty((min(CORR_BLOCK, frames.shape[0]), frames.shape[-1]), dtype=np.complex128)
    for start in range(0, frames.shape[0], CORR_BLOCK):
        block = frames[start : start + CORR_BLOCK]
        rows = r[: len(block)]
        rows.real, rows.imag = block[:, 0], block[:, 1]
        out[start : start + CORR_BLOCK] = correlation_features(rows)
    return out - rule.threshold
