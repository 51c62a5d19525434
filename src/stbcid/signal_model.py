"""Synthesis of SM and Alamouti space-time block coded bursts over a Nakagami-m channel.

All randomness flows through explicit ``numpy.random.Generator`` streams, so
identical seeds reproduce identical sequences regardless of call order
elsewhere in the process.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from .errors import ParameterError, ShapeError


class CodingScheme(IntEnum):
    """The two coding schemes; integer values double as dataset labels."""

    SM = 0
    AL = 1


# The channel every burst and calibration sequence sees: Nakagami-m fading,
# shape m = 3, mean power omega = 1 per coefficient.
NAKAGAMI_M, NAKAGAMI_OMEGA = 3.0, 1.0

# Gray-mapped unit-energy QPSK, indexed by bit pair (2*b0 + b1):
# 00 -> (+1+j)/sqrt2, 01 -> (-1+j)/sqrt2, 10 -> (+1-j)/sqrt2, 11 -> (-1-j)/sqrt2
QPSK_CONSTELLATION = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)


def block_slots(scheme: CodingScheme) -> int:
    """Time slots L spanned by one coding block: 1 for SM, 2 for AL."""
    return 2 if scheme == CodingScheme.AL else 1


def modulate_qpsk(bits) -> np.ndarray:
    """Map 0/1 bits to Gray-coded unit-energy QPSK symbols, bit pairs along the last axis."""
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] % 2 != 0:
        raise ShapeError(f"bit count must be even, got shape {bits.shape}")
    if ((bits != 0) & (bits != 1)).any():
        raise ParameterError("bits must be 0 or 1")
    idx = 2 * bits[..., 0::2].astype(np.intp) + bits[..., 1::2].astype(np.intp)
    return QPSK_CONSTELLATION[idx]


def encode(scheme: CodingScheme, symbols) -> np.ndarray:
    """Lay out symbols on the two transmit antennas.

    SM packs consecutive symbol pairs into single columns; AL emits two
    columns per pair as the Alamouti coding matrix does, the second carrying
    the conjugate pair (-x1*, x0*). Symbols [..., n] give a [..., 2, L]
    complex array (antenna x time slot) over any leading axes.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim == 0 or symbols.shape[-1] % 2 != 0:
        raise ShapeError(f"symbol count must be even, got shape {symbols.shape}")
    lead = symbols.shape[:-1]
    if scheme == CodingScheme.SM:
        return np.ascontiguousarray(np.swapaxes(symbols.reshape(*lead, -1, 2), -1, -2))
    x0, x1 = symbols[..., 0::2], symbols[..., 1::2]
    tx = np.empty((*lead, 2, symbols.shape[-1]), dtype=np.complex128)
    tx[..., 0, 0::2] = x0
    tx[..., 1, 0::2] = x1
    tx[..., 0, 1::2] = -np.conj(x1)
    tx[..., 1, 1::2] = np.conj(x0)
    return tx


def fading_law(g, u):
    """Powers |h_i|^2 ~ Gamma(shape=NAKAGAMI_M, scale=NAKAGAMI_OMEGA/NAKAGAMI_M) and
    phases ~ U[0, 2pi) from standard gamma(NAKAGAMI_M) variates ``g`` and standard
    uniforms ``u``, elementwise, so E[|h_i|^2] = NAKAGAMI_OMEGA.

    The arithmetic is numpy's own: ``rng.gamma`` returns ``scale * g`` and
    ``rng.uniform`` returns ``low + range * u``, so the results are bit-equal
    to those calls on the same generator.
    """
    return NAKAGAMI_OMEGA / NAKAGAMI_M * g, 0.0 + 2.0 * np.pi * u


def channel_gains(power, phase) -> np.ndarray:
    """h = sqrt(power) * e^(j phase), elementwise."""
    return np.sqrt(power) * np.exp(1j * phase)


def noise_variance_for_snr(snr_db: float) -> float:
    """Total noise variance sigma_w^2 (split evenly re/im) for a target SNR.

    Mean received power is 2 (unit-energy symbols, omega=1 per coefficient,
    two antennas), so sigma_w^2 = 2 * 10^(-snr_db/10). An SNR that is not
    finite, or so low that the variance overflows, raises ``ParameterError``.
    """
    snr_db = float(snr_db)
    try:
        variance = 2.0 * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        variance = math.inf
    if not (math.isfinite(snr_db) and math.isfinite(variance)):
        raise ParameterError(f"snr_db must give a finite noise variance, got {snr_db:g} dB")
    return variance


def receive(tx, h, noise_variance: float, k1: int, length: int,
            rng: np.random.Generator) -> np.ndarray:
    """Flat-fading single-antenna reception of ``length`` samples starting k1 slots into tx.

    r(k) = h0*tx[0, k+k1] + h1*tx[1, k+k1] + w(k), with gains h = (h0, h1) and w
    complex Gaussian of total variance ``noise_variance``. The package synthesizes
    through ``mix`` in whole batches; this one-row reference stays because the
    benchmark in ``perfbench/`` patches it by name.
    """
    tx = np.asarray(tx)
    if tx.ndim != 2 or tx.shape[0] != 2:
        raise ShapeError(f"transmit matrix must be 2 x L, got shape {tx.shape}")
    if k1 < 0:
        raise ParameterError(f"k1 must be >= 0, got {k1}")
    if length <= 0:
        raise ParameterError(f"length must be positive, got {length}")
    if noise_variance < 0:
        raise ParameterError(f"noise variance must be >= 0, got {noise_variance}")
    if k1 + length > tx.shape[1]:
        raise ShapeError(
            f"cannot intercept {length} samples at offset {k1} "
            f"from {tx.shape[1]} transmit slots"
        )
    w = rng.normal(0.0, np.sqrt(noise_variance / 2.0), size=(2, length))
    return mix(tx[:, k1:k1 + length], np.asarray(h), w)


def mix(tx: np.ndarray, h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h0*tx[0] + h1*tx[1] + w[0] + 1j*w[1] over any leading axes: transmit
    slots tx [..., 2, L], gains h [..., 2], real noise parts w [..., 2, L]."""
    h = np.asarray(h)[..., np.newaxis]
    signal = h[..., 0, :] * tx[..., 0, :] + h[..., 1, :] * tx[..., 1, :]
    return signal + w[..., 0, :] + 1j * w[..., 1, :]
