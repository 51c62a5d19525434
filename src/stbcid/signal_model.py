"""Synthesis of SM and Alamouti space-time block coded bursts over a Nakagami-m channel.

Owns how a burst is made, for the dataset and the baseline alike: slot layout, QPSK pair
table, fading law, noise level and the one synthesis path ``synth_from_words``, with its
draw order, bit extraction and size bounds. Generators come from ``seeding.generators``.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from . import seeding
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

# Every transmit slot sends one of 16 symbol pairs: pair p = 4a + b puts
# QPSK_CONSTELLATION[a] on antenna 0 and QPSK_CONSTELLATION[b] on antenna 1.
QPSK_PAIRS = QPSK_CONSTELLATION[np.stack(np.divmod(np.arange(16), 4))]  # [2, 16]

# Size parameters keep every array below _MAX_ARRAY_BYTES, where numpy allocates or raises
# MemoryError rather than failing in its own size arithmetic. No array of the synthesis or
# of seed derivation holds over _SAMPLE_BYTES per sample or seed (complex temporaries: 32).
_MAX_ARRAY_BYTES = 1 << 62
_SAMPLE_BYTES = 64


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


def slot_pairs(scheme: CodingScheme, bits) -> np.ndarray:
    """The ``QPSK_PAIRS`` index of each transmit slot, uint8 [..., L], for 0/1 bits
    [..., 4k]: slot j sends column j of ``encode(scheme, modulate_qpsk(bits))``.

    Four consecutive bits b0..b3 give p = 8*b0 + 4*b1 + 2*b2 + b3, the pair of symbol
    indices (i0, i1) = (2*b0 + b1, 2*b2 + b3). That is an SM slot, and the first slot
    of an AL block. The block's second slot sends (-conj(x1), conj(x0)), the pair
    4*(i1^1) + (i0^2), since -conj(C[i]) is exactly C[i^1] and conj(C[i]) exactly C[i^2].
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] % 4 != 0:
        raise ShapeError(f"bit count must be a multiple of 4, got shape {bits.shape}")
    p = (bits[..., 0::4] << 3 | bits[..., 1::4] << 2 | bits[..., 2::4] << 1
         | bits[..., 3::4]).astype(np.uint8)
    if scheme == CodingScheme.SM:
        return p
    pairs = np.empty((*p.shape[:-1], 2 * p.shape[-1]), dtype=np.uint8)
    pairs[..., 0::2] = p
    pairs[..., 1::2] = (p & 3 ^ 1) << 2 | (p >> 2 ^ 2)
    return pairs


def pair_signals(h) -> np.ndarray:
    """h0*QPSK_PAIRS[0] + h1*QPSK_PAIRS[1]: the noiseless received sample of each of the
    16 pairs, complex [..., 16] for gains h [..., 2], computed as ``mix`` computes it."""
    h = np.asarray(h)[..., np.newaxis]
    return h[..., 0, :] * QPSK_PAIRS[0] + h[..., 1, :] * QPSK_PAIRS[1]


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
    complex Gaussian of total variance ``noise_variance``. The package does not call
    it: ``signal_model.synth_from_words`` synthesizes by ``pair_signals`` lookup. This
    one-row reference stays because the benchmark in ``perfbench/`` patches it by name.
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


def _n_bits(scheme: CodingScheme, n_cols: int) -> int:
    """Bits whose symbols fill n_cols transmit slots: whole AL pairs, two SM symbols a slot."""
    return 2 * (n_cols + (n_cols % 2) if scheme == CodingScheme.AL else 2 * n_cols)


def synth_from_words(scheme: CodingScheme, snr_db: float, length: int,
                     words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains (h0, h1) complex [n, 2] and received sequences complex [n, length], one
    row per seed, from the seeds' ``seeding.rng_words`` ``words`` [n, 4]: the one
    synthesis path, for calibration and dataset bursts alike.

    Each row has its own PCG64 generator, built by ``seeding.generators`` once the
    block of words is checked, so a seed fully determines its row, whatever the other
    seeds and their order. Only the draws run per row, each into the row of a block
    array; the arithmetic runs once over the block. Every value is bit-equal to what
    the seed's ``np.random.default_rng`` gives through numpy's distribution calls
    (channel: ``standard_gamma`` and ``random``; AL's block offset k1 and the bits:
    ``integers(0, 2)``; noise: ``normal``). Per row, in this order, the draws are:

    - ``standard_gamma(m, out=)`` into the row's two channel powers;
    - one ``random_raw`` call for the two uniform words of the channel phases,
      AL's k1 word and the bits' words for k1 = 0. If the row is AL, its length
      even and its k1 (bit 31 of the k1 word, tested on a Python int) is 1, a
      second ``random_raw`` call draws the two more bit words it needs;
    - ``standard_normal(out=)`` into the row's [2, length] noise, made ``0.0 + std * z``
      over the block as ``rng.normal`` computes it (the ``0.0 +`` turns a -0.0 into
      +0.0).

    A uniform is ``(word >> 11) * 2**-53``, as ``random()`` computes it, and the
    powers and phases are made by ``fading_law``. numpy's Lemire draw for range 2
    keeps the top bit of one 32-bit half-word, taken low half first from one 64-bit
    word. So k1 is bit 31 of its word, and each bit is the top bit of the next
    half-word, starting at the high half of k1's word for AL (SM's ``integers(0, 1)``
    draws nothing). The half-words come from the raw words because a fresh PCG64
    holds no buffered half-word and the channel's draws take whole words; the half
    left over after the bits is never read, since the noise takes whole words too.
    The top bit of a little-endian half-word is bit 7 of its high byte, read through
    a uint8 view of the block's words.

    Every slot sends one of the 16 ``QPSK_PAIRS``, so each row's signal is a lookup:
    ``slot_pairs`` indexes the slots from the bits, and the row's ``pair_signals``
    table of 16 samples ``h0*C[a] + h1*C[b]`` is gathered at the slots of its window,
    which starts k1 slots in (a ``where`` on k1 picks it). The noise is then added
    into the gathered signal in place, bit-equal to ``mix``'s ``signal + w0 + 1j*w1``
    because no noise value is -0.0.
    """
    rngs = seeding.generators(words)  # checks the [n, 4] block before anything is allocated
    n = len(words)
    if not 2 <= length < (most := _MAX_ARRAY_BYTES // (_SAMPLE_BYTES * max(n, 1))):
        raise ParameterError(f"length must be >= 2 and < {most} for {n} seed(s), got {length}")
    noise_std = np.sqrt(noise_variance_for_snr(snr_db) / 2.0)
    al = int(scheme == CodingScheme.AL)
    own = _n_bits(scheme, length)  # the bits of a row whose k1 is 0
    width = _n_bits(scheme, length + block_slots(scheme) - 1)  # the widest row's bits
    first = 2 + al + own // 2  # the uniform words, AL's k1 word and the bits' words for k1 = 0
    extra = (width - own) // 2  # AL's k1 = 1 bit words: 2 for an even length, else 0
    g = np.empty((n, 2))
    raw = np.zeros((n, first + extra), dtype="<u8")  # rows zero past their own words
    w = np.empty((n, 2, length))
    for i, rng in enumerate(rngs):
        rng.standard_gamma(NAKAGAMI_M, out=g[i])
        raw[i, :first] = row = rng.bit_generator.random_raw(first)
        if extra and row.item(2) >> 31 & 1:
            raw[i, first:] = rng.bit_generator.random_raw(extra)
        rng.standard_normal(out=w[i])
    u = (raw[:, :2] >> 11) * 2.0**-53  # random()'s double from each word
    # the top bit of half-words 4, 5, ...: bit 7 of each one's high byte (AL's k1, then the bits)
    top = raw.view(np.uint8)[:, 19 : 19 + 4 * (al + width) : 4] >> 7
    pairs = slot_pairs(scheme, top[:, al:])
    slots = np.where(top[:, :1], pairs[:, 1 : length + 1], pairs[:, :length]) if al else pairs
    h = channel_gains(*fading_law(g, u))
    # row i's 16 pair samples start at flat index 16 * i of its table
    signal = pair_signals(h).take(16 * np.arange(n)[:, np.newaxis] + slots)
    w *= noise_std
    w += 0.0  # rng.normal's loc + scale * z, with loc = 0.0
    signal.real += w[:, 0]
    signal.imag += w[:, 1]
    return h, signal
