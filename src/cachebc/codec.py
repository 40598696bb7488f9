"""Rateless random-linear erasure code over F-bit blocks, GF(2).

A phase's payload is split into B blocks of F bits.  Packet j carries the
XOR of the blocks selected by a coefficient vector of B independent fair
bits, derived deterministically from (seed, phase id, j); one coefficient
vector serves all F bit planes.  The decoder subtracts the contribution of
blocks it already holds (cached bits, zero padding) and solves the reduced
system by bit-packed Gauss-Jordan elimination, so side information shrinks
the system instead of the codebook.

Pure random coefficients need a little rank slack: u unknown blocks decode
with probability >= 0.99 from u + 32 received packets.  The simulation
harness budgets that slack inside its rate backoff and reports it
separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _HAVE_NUMBA = False

from ._seeding import CODEC_STREAM, derived_rng

__all__ = [
    "DecodeResult",
    "coefficient_rows",
    "encode_payloads",
    "decode_arrays",
    "solve_gf2",
    "DEFAULT_RANK_SLACK",
]

DEFAULT_RANK_SLACK = 32


@dataclass(frozen=True)
class DecodeResult:
    ok: bool
    blocks: np.ndarray | None  # (B, F) uint8 bits on success
    rank_deficit: int


def coefficient_rows(seed, phase_id: int, count: int, B: int) -> np.ndarray:
    """Coefficient matrix rows 0..count-1; row j depends only on
    (seed, phase_id, j, B), so encoder and decoder always agree."""
    rng = derived_rng(seed, CODEC_STREAM, int(phase_id))
    if count == 0 or B == 0:
        return np.zeros((count, B), dtype=np.uint8)
    words_per_row = (B + 63) // 64
    raw = rng.bit_generator.random_raw(count * words_per_row)
    bits = np.unpackbits(
        raw.reshape(count, words_per_row).view(np.uint8), axis=1, bitorder="little"
    )
    return bits[:, :B]


def _gf2_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(A @ X) mod 2 for 0/1 matrices; float32 keeps the products exact
    (inner dimension < 2^24) and routes through BLAS."""
    prod = A.astype(np.float32) @ X.astype(np.float32)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def encode_payloads(blocks, count: int, phase_id: int, seed) -> np.ndarray:
    """The (count, F) payload matrix of ``count`` coded packets over the
    (B, F) source blocks; row j is packet j."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    B, F = blocks.shape if blocks.ndim == 2 else (0, 0)
    if B == 0:
        return np.zeros((count, blocks.shape[1] if blocks.ndim == 2 else 0), np.uint8)
    A = coefficient_rows(seed, phase_id, count, B)
    return _gf2_matmul(A, blocks)


# -- bit-packed GF(2) elimination --------------------------------------------


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack (m, c) bit rows into (m, ceil(c/64)) uint64 words, bit c at word
    c//64, position c%64 (little-endian hosts)."""
    m, c = bits.shape
    pad = (-c) % 64
    if pad:
        bits = np.concatenate([bits, np.zeros((m, pad), np.uint8)], axis=1)
    packed = np.packbits(bits, axis=1, bitorder="little")
    # a column-gathered input packs Fortran-ordered; the word view needs C order
    return np.ascontiguousarray(packed).view(np.uint64)


def _unpack_rows(packed: np.ndarray, c: int) -> np.ndarray:
    raw = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return raw[:, :c]


def _eliminate_numpy(packed: np.ndarray, u: int, pivot_row: np.ndarray) -> int:
    m = packed.shape[0]
    used = np.zeros(m, dtype=bool)
    rank = 0
    for c in range(u):
        w, b = divmod(c, 64)
        hit = ((packed[:, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)
        cand = hit & ~used
        r = int(np.argmax(cand))
        if not cand[r]:
            continue
        used[r] = True
        pivot_row[c] = r
        hit[r] = False
        packed[hit] ^= packed[r]
        rank += 1
    return rank


if _HAVE_NUMBA:

    @numba.njit(cache=True)
    def _eliminate_jit(packed, u, pivot_row):  # pragma: no cover - jitted
        m, w = packed.shape
        used = np.zeros(m, dtype=numba.boolean)
        rank = 0
        one = np.uint64(1)
        for c in range(u):
            wi = c // 64
            bi = np.uint64(c % 64)
            r = -1
            for i in range(m):
                if not used[i] and (packed[i, wi] >> bi) & one:
                    r = i
                    break
            if r < 0:
                continue
            used[r] = True
            pivot_row[c] = r
            for i in range(m):
                if i != r and (packed[i, wi] >> bi) & one:
                    for jw in range(w):
                        packed[i, jw] ^= packed[r, jw]
            rank += 1
        return rank


def solve_gf2(rows: np.ndarray, rhs: np.ndarray):
    """Solve rows @ x = rhs over GF(2) for (m, u) rows and (m, F) rhs.

    Returns (x, deficit): x is (u, F) when the column rank is full, else
    None with the rank deficit.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    rhs = np.asarray(rhs, dtype=np.uint8)
    m, u = rows.shape
    F = rhs.shape[1]
    if u == 0:
        return np.zeros((0, F), np.uint8), 0
    if m == 0:
        return None, u
    packed = _pack_rows(np.concatenate([rows, rhs], axis=1))
    pivot_row = np.full(u, -1, dtype=np.int64)
    if _HAVE_NUMBA:
        rank = _eliminate_jit(packed, u, pivot_row)
    else:
        rank = _eliminate_numpy(packed, u, pivot_row)
    if rank < u:
        return None, u - rank
    sol = _unpack_rows(packed[pivot_row], u + F)[:, u:]
    return np.ascontiguousarray(sol), 0


def decode_arrays(
    indices, payloads, B: int, phase_id: int, seed, known: dict | None = None
) -> DecodeResult:
    """Decode from received packet indices and payload rows.

    ``known`` maps block index -> (F,) bit value; those columns are
    eliminated before solving.  Uses the earliest u+64 received packets
    first and falls back to everything on a rank deficit.
    """
    known = known or {}
    indices = np.asarray(indices, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.uint8)
    F = payloads.shape[1] if payloads.ndim == 2 and payloads.shape[1] else 0
    if F == 0 and known:
        F = len(next(iter(known.values())))
    unknown_cols = np.array([i for i in range(B) if i not in known], dtype=np.int64)
    u = len(unknown_cols)
    if u == 0:
        out = np.zeros((B, F), np.uint8)
        for i, v in known.items():
            out[i] = v
        return DecodeResult(ok=True, blocks=out, rank_deficit=0)
    m = len(indices)
    if m < u:
        return DecodeResult(ok=False, blocks=None, rank_deficit=u - m)
    A = coefficient_rows(seed, phase_id, int(indices.max()) + 1, B)[indices]
    adjusted = payloads
    if known:
        kc = np.array(sorted(known), dtype=np.int64)
        kv = np.stack([known[int(i)] for i in kc])
        corr = _gf2_matmul(A[:, kc], kv)
        adjusted = (payloads ^ corr).astype(np.uint8)
    sub = A[:, unknown_cols]
    limit = u + 64
    x, deficit = solve_gf2(sub[:limit], adjusted[:limit])
    if x is None and m > limit:
        x, deficit = solve_gf2(sub, adjusted)
    if x is None:
        return DecodeResult(ok=False, blocks=None, rank_deficit=deficit)
    out = np.zeros((B, F), np.uint8)
    for i, v in known.items():
        out[i] = v
    out[unknown_cols] = x
    return DecodeResult(ok=True, blocks=out, rank_deficit=0)

