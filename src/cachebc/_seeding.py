"""Deterministic random-stream derivation.

Every random draw in the package comes from a counter-based Philox generator
keyed by (seed, stream tags): the key is numpy's ``SeedSequence`` hash of
the seed entropy followed by the tags, ``generate_state(2, uint64)``, and
the counter starts at 0, so the key alone fixes the stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).  Draws are made as
single vectorized calls, so a given (seed, tags) pair yields the same values
regardless of call order.

``derived_rng`` gives one stream, built on ``SeedSequence``.  A block of
runs draws hundreds of streams, so ``stream_keys`` derives all their keys in
one vectorised pass of the same hash, and each ``Stream`` draws its values by
re-keying one Philox generator that the block owns.  A draw function takes
either seed material or a ``Stream`` (``stream_rng``); both give the same
values.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import ConfigError

LIBRARY_STREAM = 0x10
CHANNEL_STREAM = 0x20
CODEC_STREAM = 0x30


def _is_seed_int(value) -> bool:
    """A non-negative integer, as ``SeedSequence`` takes entropy (a bool is
    not one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


def check_seed(seed) -> int:
    """``seed`` as an int; raises ``ConfigError`` naming ``seed`` unless it
    is a non-negative integer (a bool, float or str is not one)."""
    if not _is_seed_int(seed):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def seed_material(seed) -> list[int]:
    """Normalize a non-negative int, or a sequence of them, into
    seed-sequence entropy; anything else raises ``ConfigError`` naming
    ``seed``."""
    if _is_seed_int(seed):
        return [int(seed)]
    if isinstance(seed, (list, tuple, range, np.ndarray)) and all(map(_is_seed_int, seed)):
        return [int(s) for s in seed]
    raise ConfigError(f"seed must be a non-negative integer or a sequence of them, got {seed!r}")


def derived_rng(seed, *tags: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed_material(seed) + [int(t) for t in tags])
    return np.random.Generator(np.random.Philox(ss))


# -- many stream keys at once ---------------------------------------------------

# numpy's SeedSequence constants: a pool of 4 uint32 words, mixed with
# hashmix and mix, every product taken mod 2^32
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_MASK32 = (1 << 32) - 1


def _words(entropy) -> list[int]:
    """The uint32 words SeedSequence reads from a list of non-negative ints:
    each int little-endian, 0 as one word."""
    out = []
    for n in entropy:
        out.append(n & _MASK32)
        n >>= 32
        while n:
            out.append(n & _MASK32)
            n >>= 32
    return out


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before and after each of ``count`` hashes, as a
    (count + 1, 1) column: it is multiplied by ``mult`` at every hash,
    whatever the data, so rows of equal word count share the sequence."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _hash(values, xor, mult):
    """hashmix of each row of ``values`` with its own constants: XOR with
    the constant, multiply by the next one, fold the high half down."""
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _hash_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool mix and ``generate_state(2, uint64)`` over the
    rows of an (N, n) uint32 array of entropy words.  The pool is a
    (4, N) array; the hashes that one step applies to several pool words
    are taken together."""
    N, n = entropy.shape
    c = _constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(n - _POOL, 0))
    words = np.zeros((max(n, _POOL), N), np.uint32)
    words[:n] = entropy.T
    pool = _hash(words[:_POOL], c[:_POOL], c[1 : _POOL + 1])
    at = _POOL
    for src in range(_POOL):  # every word into every other, in order
        dst = [d for d in range(_POOL) if d != src]
        h = _hash(pool[src], c[at : at + _POOL - 1], c[at + 1 : at + _POOL])
        pool[dst] = _mix(pool[dst], h)
        at += _POOL - 1
    for src in range(_POOL, n):  # the words past the pool into all of it
        h = _hash(words[src], c[at : at + _POOL], c[at + 1 : at + _POOL + 1])
        pool = _mix(pool, h)
        at += _POOL
    c = _constants(_INIT_B, _MULT_B, _POOL)  # generate_state: 4 words, 2 uint64
    state = _hash(pool, c[:_POOL], c[1:])
    return np.ascontiguousarray(state.T).view(np.uint64)


def stream_keys(entropies) -> np.ndarray:
    """The Philox keys of many streams, (N, 2) uint64: row i is
    ``SeedSequence(entropies[i]).generate_state(2, np.uint64)``, the key
    ``derived_rng`` gives the same entropy (seed material followed by
    tags).  Entropies of the same word count are hashed together."""
    words = [_words(e) for e in entropies]
    keys = np.empty((len(words), 2), np.uint64)
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        groups.setdefault(len(w), []).append(i)
    for n, rows in groups.items():
        block = np.array([words[i] for i in rows], np.uint32).reshape(len(rows), n)
        keys[rows] = _hash_keys(block)
    return keys


_ZEROS = (0, 0, 0, 0)


class Stream(NamedTuple):
    """One random stream, held as its Philox key, and the generator it is
    drawn through, which the streams of a block of runs share."""

    key: list[int]  # the two uint64 key words
    generator: np.random.Generator  # Philox

    def rng(self) -> np.random.Generator:
        """The shared generator, re-keyed to the start of this stream."""
        self.generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": self.key},
            "buffer": _ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.generator


def stream_rng(seed, *tags: int) -> np.random.Generator:
    """The generator of stream (seed, tags) at its start.  ``seed`` is seed
    material, or a ``Stream`` whose key is already that stream's (its tags
    are in the key)."""
    if isinstance(seed, Stream):
        return seed.rng()
    return derived_rng(seed, *tags)


def block_streams(bases, tags) -> list[list[Stream]]:
    """Stream (base, *tags[j]) of every seed-material ``base`` of a block,
    as ``out[i][j]``: the keys in one ``stream_keys`` pass, all drawn
    through one Philox generator that only this block holds."""
    keys = stream_keys([base + list(t) for base in bases for t in tags])
    keys = keys.reshape(len(bases), len(tags), 2).tolist()
    generator = np.random.Generator(np.random.Philox(key=0))
    return [[Stream(key, generator) for key in row] for row in keys]
