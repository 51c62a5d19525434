"""Every random stream the package draws, and numpy's ``SeedSequence`` hash over a
leading row axis that derives them.

A seed enters every stream as its low 64 bits (``seed mod 2**64``), so a seed and
the same seed +- 2**64 draw the same bytes. The streams, each from a user seed:

- ``stream(seed, b"init")``: ``classifier.initialize``'s weights;
- ``stream(seed, b"shuf")``: ``classifier.train``'s per-epoch batch order;
- ``stream(seed, b"drop")``: ``classifier.train``'s dropout keep masks; each
  batch element of n units, per Dropout, reads ceil(n/64) raw words, one bit per
  unit, at the default rate 0.5, else ceil(n/2), a uint32 per unit
  (``tensor_nn.keep_mask``);
- ``stream(seed, b"spli")``: ``dataset.split_train_val``'s training bursts per cell;
- ``stream(seed)``: ``tensor_nn.random_micro_network``'s shape, weights, input
  and target, for the gradient check;
- ``derive(seed, scheme, snr key, burst index)``: ``dataset._burst_seeds``, one
  seed per burst;
- ``derive(seed, scheme, trial)``: ``baseline_corr.calibrate_threshold``'s seed
  of each trial sequence.

A derived seed s synthesizes its burst or trial sequence from the generator
``np.random.default_rng(s)`` gives, without hashing s again: ``rng_words`` hashes a
whole block of seeds into the four words each seed's PCG64 is seeded with, and
``generators`` checks that block once, then builds each row's PCG64 from its row,
handed over as it is. A new stream gets its own tag or entropy columns here and in
this list.

Row i of every hash result equals what ``np.random.SeedSequence(entropy_i)``
gives, where entropy_i is ``[column[i] for column in columns]``, so seeds derived
here keep every stream that a per-row ``SeedSequence`` would give. The hash is
fixed uint32 arithmetic (``hashmix``/``mix`` into a 4-word pool, then
``generate_state``); here each step runs once over all rows, on arrays, which
wrap on overflow without warning.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1  # a seed enters every stream as its low 64 bits
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def stream(seed: int, tag: bytes = b"") -> np.random.Generator:
    """``np.random.default_rng(SeedSequence([seed mod 2**64, tag]))``, the tag read as one
    big-endian word. No tag reads as word 0, and ``[seed mod 2**64, 0]`` hashes as ``[seed
    mod 2**64]``, since entropy shorter than ``POOL_SIZE`` words is padded with zero words:
    so ``stream(seed)`` is ``np.random.default_rng(seed mod 2**64)``."""
    tag_word = int.from_bytes(tag, "big")
    return np.random.default_rng(np.random.SeedSequence([seed & _MASK64, tag_word]))


def derive(seed: int, *columns) -> np.ndarray:
    """uint64 [n]: the first uint64 of ``SeedSequence([seed mod 2**64, *row])`` for
    each row of the entropy columns (a scalar serves every row)."""
    return generate_state([seed & _MASK64, *columns], 1)[:, 0]


def _int_words(value: int) -> list[int]:
    """numpy's split of one non-negative int: little-endian uint32 words, 0 -> [0]."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _column_words(column, n: int) -> tuple[np.ndarray, np.ndarray]:
    """uint32 words [n, w] of each row's value, zero past the row's own, and the count of
    words each row's value takes. A scalar column serves every row."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu" and not (column < 0).any():
        v = np.broadcast_to(column, (n,)).astype(np.uint64)
        hi = (v >> 32).astype(np.uint32)
        return np.stack([(v & _MASK32).astype(np.uint32), hi], axis=1), 1 + (hi > 0)
    values = [column] if np.ndim(column) == 0 else list(column)
    for row, value in enumerate(values):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ParameterError(f"seed entropy must be non-negative integers, "
                                 f"row {row} has {value!r}")
    split = [_int_words(int(value)) for value in values]
    words = np.zeros((len(split), max(map(len, split), default=1)), dtype=np.uint32)
    for row, row_words in enumerate(split):
        words[row, : len(row_words)] = row_words
    count = np.array([len(row_words) for row_words in split], dtype=np.intp)
    return np.broadcast_to(words, (n, words.shape[1])), np.broadcast_to(count, (n,))


def _entropy(columns) -> tuple[np.ndarray, np.ndarray]:
    """Each row's entropy words, zero-padded to at least ``POOL_SIZE``, and its word count."""
    n = max((len(column) for column in columns if np.ndim(column) != 0), default=1)
    parts = [_column_words(column, n) for column in columns]
    out = np.zeros((n, max(POOL_SIZE, sum(words.shape[1] for words, _ in parts))), np.uint32)
    rows, offset = np.arange(n), np.zeros(n, dtype=np.intp)
    for words, count in parts:
        for j in range(words.shape[1]):  # a short row's zero words land where the next column writes
            out[rows, offset + j] = words[:, j]
        offset += count
    return out, offset


def pool(columns) -> np.ndarray:
    """``SeedSequence(entropy_i).pool`` of each row: uint32 [n, POOL_SIZE]."""
    words, count = _entropy(columns)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    mixer = [hashmix(words[:, i]) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    for i_src in range(POOL_SIZE, words.shape[1]):
        live = i_src < count  # rows whose entropy is this long
        for i_dst in range(POOL_SIZE):
            mixer[i_dst] = np.where(live, mix(mixer[i_dst], hashmix(words[:, i_src])),
                                    mixer[i_dst])
    return np.stack(mixer, axis=1)


def generate_state(columns, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy_i).generate_state(n_words, np.uint64)`` of each row:
    uint64 [n, n_words]."""
    src = pool(columns)
    hash_const = _INIT_B
    state = np.empty((src.shape[0], 2 * n_words), dtype=np.uint32)  # two words per uint64
    for i in range(state.shape[1]):
        value = src[:, i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def rng_words(seeds) -> np.ndarray:
    """uint64 [n, 4]: the words ``np.random.default_rng(seed)`` seeds PCG64 with, per seed."""
    return generate_state([seeds], 4)


class _Words(ISeedSequence):
    """Hands PCG64 one row of ``rng_words``; any request but PCG64's
    ``generate_state(4, np.uint64)`` raises."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ParameterError(f"these seed words serve PCG64 only, not "
                                 f"generate_state({n_words}, {dtype})")
        return self.words


def generators(words) -> Iterator[np.random.Generator]:
    """For each row of ``rng_words(seeds)``, the generator ``np.random.default_rng(seed)``
    gives: same state, same draws, without hashing the seed again. The [n, 4] block is
    checked once, before any generator is built: anything but integer words in
    [0, 2**64) raises, so nothing wraps. Each row's PCG64 then takes its row of the
    block, as C-contiguous uint64, as it is."""
    words = np.asarray(words)
    if words.ndim != 2 or words.shape[1] != 4:
        raise ParameterError(f"need [n, 4] PCG64 seed words, got shape {words.shape}")
    if words.dtype.kind not in "iu":
        raise ParameterError(f"PCG64 seed words must be integers, got {words.dtype} words")
    if words.dtype.kind == "i" and (words < 0).any():
        raise ParameterError(f"PCG64 seed words must be in [0, 2**64), got {words.min()}")
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return (np.random.Generator(np.random.PCG64(_Words(row))) for row in words)
