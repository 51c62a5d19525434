"""numpy's ``SeedSequence`` hash over a leading row axis.

Row i of every result equals what ``np.random.SeedSequence(entropy_i)`` gives,
where entropy_i is ``[column[i] for column in columns]``, so seeds derived here
keep every stream that a per-row ``SeedSequence`` would give. The hash is fixed
uint32 arithmetic (``hashmix``/``mix`` into a 4-word pool, then
``generate_state``); here each step runs once over all rows, on arrays, which
wrap on overflow without warning.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


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
    """Hands PCG64 one row of ``rng_words``; any other request raises."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ParameterError(f"these seed words serve PCG64 only, not "
                                 f"generate_state({n_words}, {np.dtype(dtype)})")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed)`` gives, from ``rng_words(...)[i]``
    for that seed: same state, same draws, without hashing the seed again."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.shape != (4,):
        raise ParameterError(f"need 4 PCG64 seed words, got shape {words.shape}")
    return np.random.Generator(np.random.PCG64(_Words(words)))
