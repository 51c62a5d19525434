"""Synthesis of SM and Alamouti space-time block coded bursts over a Nakagami-m channel.

All randomness flows through explicit ``numpy.random.Generator`` streams, so
identical seeds reproduce identical sequences regardless of call order
elsewhere in the process.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ParameterError, ShapeError


class CodingScheme(IntEnum):
    """The two coding schemes; integer values double as dataset labels."""

    SM = 0
    AL = 1


_MASK64 = (1 << 64) - 1  # seeds enter a SeedSequence as their low 64 bits

# Gray-mapped unit-energy QPSK, indexed by bit pair (2*b0 + b1):
# 00 -> (+1+j)/sqrt2, 01 -> (-1+j)/sqrt2, 10 -> (+1-j)/sqrt2, 11 -> (-1-j)/sqrt2
QPSK_CONSTELLATION = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One flat-fading draw, constant over a burst."""

    h0: complex
    h1: complex
    m: float = 3.0
    omega: float = 1.0


@dataclass(frozen=True)
class NoiseSpec:
    """Total complex noise variance sigma_w^2 (split evenly re/im)."""

    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ParameterError(f"noise variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class ReceiveConfig:
    """Interception window: block offset k1, sample count, nominal SNR tag."""

    k1: int
    length: int
    snr_db: float

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ParameterError(f"k1 must be >= 0, got {self.k1}")
        if self.length <= 0:
            raise ParameterError(f"length must be positive, got {self.length}")


def block_slots(scheme: CodingScheme) -> int:
    """Time slots L spanned by one coding block: 1 for SM, 2 for AL."""
    return 2 if scheme == CodingScheme.AL else 1


def modulate_qpsk(bits) -> np.ndarray:
    """Map a flat 0/1 bit sequence to Gray-coded unit-energy QPSK symbols."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size % 2 != 0:
        raise ShapeError(f"bit count must be even, got shape {bits.shape}")
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ParameterError("bits must be 0 or 1")
    idx = 2 * bits[0::2].astype(np.intp) + bits[1::2].astype(np.intp)
    return QPSK_CONSTELLATION[idx]


def encode(scheme: CodingScheme, symbols) -> np.ndarray:
    """Lay out symbols on the two transmit antennas.

    SM packs consecutive symbol pairs into single columns; AL emits two
    columns per pair, the second carrying the conjugate pair (-x1*, x0*).
    Returns a 2 x L complex matrix (antenna x time slot).
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if symbols.ndim != 1 or symbols.size % 2 != 0:
        raise ShapeError(f"symbol count must be even, got shape {symbols.shape}")
    if scheme == CodingScheme.SM:
        return np.ascontiguousarray(symbols.reshape(-1, 2).T)
    x0, x1 = symbols[0::2], symbols[1::2]
    tx = np.empty((2, symbols.size), dtype=np.complex128)
    tx[0, 0::2] = x0
    tx[1, 0::2] = x1
    tx[0, 1::2] = -np.conj(x1)
    tx[1, 1::2] = np.conj(x0)
    return tx


def draw_channel(rng: np.random.Generator, m: float = 3.0, omega: float = 1.0) -> ChannelRealization:
    """Draw (h0, h1) with Nakagami-m magnitudes and independent uniform phases.

    |h_i|^2 ~ Gamma(shape=m, scale=omega/m), so E[|h_i|^2] = omega.
    """
    if m < 0.5:
        raise ParameterError(f"Nakagami shape m must be >= 0.5, got {m}")
    if omega <= 0:
        raise ParameterError(f"omega must be positive, got {omega}")
    power = rng.gamma(m, omega / m, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    h = np.sqrt(power) * np.exp(1j * phase)
    return ChannelRealization(h0=complex(h[0]), h1=complex(h[1]), m=m, omega=omega)


def noise_variance_for_snr(snr_db: float) -> NoiseSpec:
    """Total noise variance for a target SNR.

    Mean received power is 2 (unit-energy symbols, omega=1 per coefficient,
    two antennas), so sigma_w^2 = 2 * 10^(-snr_db/10).
    """
    return NoiseSpec(variance=2.0 * 10.0 ** (-snr_db / 10.0))


def receive(
    tx: np.ndarray,
    ch: ChannelRealization,
    noise: NoiseSpec,
    cfg: ReceiveConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flat-fading single-antenna reception starting cfg.k1 slots into tx.

    r(k) = h0*tx[0, k+k1] + h1*tx[1, k+k1] + w(k), with w complex Gaussian of
    total variance ``noise.variance``.
    """
    tx = np.asarray(tx)
    if tx.ndim != 2 or tx.shape[0] != 2:
        raise ShapeError(f"transmit matrix must be 2 x L, got shape {tx.shape}")
    if cfg.k1 + cfg.length > tx.shape[1]:
        raise ShapeError(
            f"cannot intercept {cfg.length} samples at offset {cfg.k1} "
            f"from {tx.shape[1]} transmit slots"
        )
    sl = slice(cfg.k1, cfg.k1 + cfg.length)
    signal = ch.h0 * tx[0, sl] + ch.h1 * tx[1, sl]
    w = rng.normal(0.0, np.sqrt(noise.variance / 2.0), size=(2, cfg.length))
    return signal + w[0] + 1j * w[1]
