"""Caching-phase construction: message splitting and cache filling.

Messages are bit arrays of length floor(n * R).  For the subset-caching
scheme each message splits into tau = C(K0, t) cached fragments (one per
size-t subset of the cached receivers, in lexicographic subset order) plus
one uncached remainder.  Fragment bit lengths are floors of n * rate; the
remainder absorbs the rounding slack so the fragments partition the message
exactly.  For transmission each fragment is padded with zeros up to a
multiple of F so payload items align to codec blocks.

A cache is side information: the simulator needs only which library bits a
receiver holds, never a copy of them.  So a placement is a (K, library bits
+ 1) boolean mask over the library laid out message after message
(``schedule.flat_library``); row k-1 belongs to receiver k, and the last
column is the padding bit, which everyone knows for free.

The caching phase is error-free by assumption, so placement is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._seeding import LIBRARY_STREAM, stream_rng
from .model import ConfigError, SystemConfig, check_k0_t, check_memory
from .regions import OutOfRegimeError

__all__ = [
    "CapacityError",
    "enumerate_cache_subsets",
    "SubMessageLayout",
    "sub_message_layout",
    "message_lengths",
    "build_caches",
    "build_prefix_caches",
    "validate_cache_allocation",
    "draw_library",
]


class CapacityError(ValueError):
    """Cache contents would exceed a receiver's bit budget floor(n * M_k)."""


def enumerate_cache_subsets(K0: int, t: int) -> list[tuple[int, ...]]:
    """All C(K0, t) size-t subsets of {1..K0} in lexicographic order."""
    check_k0_t(K0, t)
    return list(combinations(range(1, K0 + 1), t))


def _pad_to(F: int, bits: int) -> int:
    return ((bits + F - 1) // F) * F if bits else 0


@dataclass(frozen=True)
class SubMessageLayout:
    """How every message splits into fragments, identically across messages.

    ``subsets[i]`` is the receiver subset caching fragment i (0-based,
    i < tau); fragment ``tau`` is the uncached remainder with an empty
    subset.  ``piece_bits`` are unpadded lengths; ``padded_piece_bits`` are
    rounded up to multiples of F for codec alignment.
    """

    K0: int
    t: int
    tau: int
    F: int
    n: int
    subsets: tuple[tuple[int, ...], ...]
    piece_bits: tuple[int, ...]
    padded_piece_bits: tuple[int, ...]
    cached_rate: float
    uncached_rate: float

    @property
    def message_bits(self) -> int:
        return sum(self.piece_bits)

    @property
    def rounding_slack_bits(self) -> int:
        """Padding overhead per message, reported rather than hidden."""
        return sum(self.padded_piece_bits) - self.message_bits

    def piece_offset(self, i: int) -> int:
        return sum(self.piece_bits[:i])

    def position(self, d: int, i: int, a: int = 0) -> int:
        """Index of bit a of fragment i of message d in the library laid out
        message after message."""
        return (d - 1) * self.message_bits + self.piece_offset(i) + a

    def pieces_cached_at(self, k: int) -> list[int]:
        return [i for i, s in enumerate(self.subsets) if k in s]

    def subset_index(self, receivers) -> int:
        """Fragment index whose caching subset equals ``receivers``."""
        key = tuple(sorted(receivers))
        try:
            return self.subsets.index(key)
        except ValueError:
            raise KeyError(f"{key} is not a caching subset of this layout") from None


def sub_message_layout(cfg: SystemConfig, K0: int, t: int, M: float) -> SubMessageLayout:
    """Build the fragment layout for equal message rates and the equal-cache
    pattern (M at receivers 1..K0).

    Cached fragments have rate M / (D * C(K0-1, t-1)) each; the remainder has
    rate R - M*K0/(D*t), which must be nonnegative (regime requirement).
    A cached receiver holds D * C(K0-1, t-1) fragments, which fit in its
    floor(n * M) bits even where the rate's division rounds up.
    """
    n = cfg.require_n()
    R = cfg.equal_rate()
    check_k0_t(K0, t, cfg.K)
    check_memory(M)
    subsets = tuple(enumerate_cache_subsets(K0, t))
    tau = len(subsets)
    held = cfg.D * math.comb(K0 - 1, t - 1)  # fragments per cached receiver
    r_c = M / held
    r_u = R - M * K0 / (cfg.D * t)
    if r_u < -1e-12:
        raise OutOfRegimeError(
            f"uncached rate would be negative: R={R}, M*K0/(D*t)={M * K0 / (cfg.D * t)}"
        )
    message_bits = message_lengths(cfg)[0]
    frag = min(math.floor(n * r_c), math.floor(n * M) // held)
    if frag * tau > message_bits:  # guards pathological float rounding
        frag = message_bits // max(tau, 1)
    piece_bits = tuple([frag] * tau + [message_bits - frag * tau])
    padded = tuple(_pad_to(cfg.F, b) for b in piece_bits)
    return SubMessageLayout(
        K0=K0,
        t=t,
        tau=tau,
        F=cfg.F,
        n=n,
        subsets=subsets + ((),),
        piece_bits=piece_bits,
        padded_piece_bits=padded,
        cached_rate=r_c,
        uncached_rate=max(r_u, 0.0),
    )


# Bound on what a simulated library costs to hold: the library and the K
# receivers' cache masks, one byte per bit each.  Checked before any of them
# is allocated.
MAX_HELD_BYTES = 1 << 28


def message_lengths(cfg: SystemConfig) -> list[int]:
    """Message d has floor(n * R_d) bits.  A library whose bits times
    (K + 1) exceed ``MAX_HELD_BYTES`` is rejected, naming ``n``."""
    n = cfg.require_n()
    sizes = [math.floor(n * r) for r in cfg.rates]
    held = sum(sizes) * (cfg.K + 1)
    if held > MAX_HELD_BYTES:
        raise ConfigError(
            f"n={n} gives a library of {sum(sizes)} bits; with the K={cfg.K} cache masks "
            f"that is {held} bytes, above the bound of {MAX_HELD_BYTES}"
        )
    return sizes


def _cache_masks(cfg: SystemConfig, library_bits: int) -> np.ndarray:
    """Empty caches over a library of ``library_bits`` bits; the last column
    is the padding bit (``schedule.PAD``), known everywhere."""
    masks = np.zeros((cfg.K, library_bits + 1), dtype=bool)
    masks[:, -1] = True
    return masks


def _check_budgets(cfg: SystemConfig, masks: np.ndarray) -> np.ndarray:
    n = cfg.require_n()
    for k in range(1, cfg.K + 1):
        total = int(masks[k - 1, :-1].sum())
        budget = math.floor(n * cfg.memory(k))
        if total > budget:
            raise CapacityError(
                f"receiver {k} cache needs {total} bits but budget is {budget}"
            )
    return masks


def build_caches(cfg: SystemConfig, layout: SubMessageLayout) -> np.ndarray:
    """Subset placement: receiver k caches fragment (d, i) of every message d
    exactly when k is in the fragment's subset.  Returns the cache masks."""
    masks = _cache_masks(cfg, layout.position(cfg.D + 1, 0))
    for i, subset in enumerate(layout.subsets):
        for k in subset:
            for d in range(1, cfg.D + 1):
                start = layout.position(d, i)
                masks[k - 1, start : start + layout.piece_bits[i]] = True
    return _check_budgets(cfg, masks)


def validate_cache_allocation(cfg: SystemConfig, allocation, tol: float = 1e-9) -> np.ndarray:
    alloc = np.asarray(allocation, dtype=float)
    if alloc.shape != (cfg.K, cfg.D):
        raise ConfigError(f"allocation must have shape ({cfg.K}, {cfg.D})")
    if (alloc < -1e-12).any():
        raise ConfigError("allocation entries must be >= 0")
    sums = alloc.sum(axis=1)
    for k in range(cfg.K):
        if sums[k] > cfg.memories[k] + tol:
            raise ConfigError(
                f"allocation row {k + 1} sums to {sums[k]} > memory {cfg.memories[k]}"
            )
    return alloc


def build_prefix_caches(cfg: SystemConfig, allocation) -> np.ndarray:
    """Prefix placement for the common-demand scheme: receiver k caches the
    first floor(n * M_{k,d}) bits of each message.  Returns the cache masks."""
    n = cfg.require_n()
    alloc = validate_cache_allocation(cfg, allocation)
    sizes = message_lengths(cfg)
    masks = _cache_masks(cfg, sum(sizes))
    for k in range(1, cfg.K + 1):
        start = 0
        for d in range(1, cfg.D + 1):
            # an entry just below zero floors to -1 bit and marks nothing
            bits = max(min(math.floor(n * alloc[k - 1, d - 1]), sizes[d - 1]), 0)
            masks[k - 1, start : start + bits] = True
            start += sizes[d - 1]
    return _check_budgets(cfg, masks)


def draw_library(cfg: SystemConfig, seed) -> list[np.ndarray]:
    """Uniform library draw: message d gets floor(n * R_d) fair bits, from
    the library stream of ``seed`` (seed material, or that stream's
    ``Stream``).

    The bits are those of one ``rng.integers(0, 2, size=b_d, dtype=uint8)``
    call per message, taken from one raw draw: such a call returns the high
    bit of each byte of the generator's uint32 stream, low byte first, and
    starts on a fresh uint32 word, so message d reads the first b_d bytes
    of its ceil(b_d / 4) words, which follow those of messages 1..d-1.
    """
    sizes = message_lengths(cfg)
    starts = np.cumsum([0] + [4 * -(-b // 4) for b in sizes])  # byte offsets
    raw = stream_rng(seed, LIBRARY_STREAM).bit_generator.random_raw(-(-int(starts[-1]) // 8))
    bits = raw.astype("<u8", copy=False).view(np.uint8) >> 7
    return [bits[s : s + b] for s, b in zip(starts, sizes)]
