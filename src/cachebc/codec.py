"""Rateless random-linear erasure code over F-bit blocks, GF(2).

A phase's payload is split into B blocks of F bits.  Packet j carries the
XOR of the blocks selected by a coefficient vector of B independent fair
bits, derived deterministically from (seed, phase id, j); one coefficient
vector serves all F bit planes.  The decoder subtracts the contribution of
blocks it already holds (cached bits, zero padding) and solves the reduced
system by bit-packed Gauss-Jordan elimination, so side information shrinks
the system instead of the codebook.  ``decode_batch`` decodes many receivers
of many phases in one call and eliminates all their systems together with a
batched Method of Four Russians; ``decode_arrays`` and ``solve_gf2`` are the
single-system forms of ``decode_batch`` and ``solve_gf2_batch``.

Pure random coefficients need a little rank slack: u unknown blocks decode
with probability >= 0.99 from u + 32 received packets.  The simulation
harness budgets that slack inside its rate backoff and reports it
separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._seeding import CODEC_STREAM, derived_rng

__all__ = [
    "DecodeResult",
    "coefficient_rows",
    "encode_payloads",
    "decode_arrays",
    "decode_batch",
    "Reception",
    "solve_gf2",
    "solve_gf2_batch",
    "DEFAULT_RANK_SLACK",
]

DEFAULT_RANK_SLACK = 32


@dataclass(frozen=True)
class DecodeResult:
    ok: bool
    blocks: np.ndarray | None  # (B, F) uint8 bits on success
    rank_deficit: int


def _coefficient_bytes(seed, phase_id: int, count: int, B: int) -> np.ndarray:
    """Coefficient rows 0..count-1 as packed bytes, (count, 8 ceil(B/64)):
    bit i of byte g is the coefficient of block 8g+i; bits past B are
    filler.  Row j depends only on (seed, phase_id, j, B)."""
    rng = derived_rng(seed, CODEC_STREAM, int(phase_id))
    words_per_row = (B + 63) // 64
    raw = rng.bit_generator.random_raw(count * words_per_row)
    return raw.view(np.uint8).reshape(count, 8 * words_per_row)


def coefficient_rows(seed, phase_id: int, count: int, B: int) -> np.ndarray:
    """Coefficient matrix rows 0..count-1; row j depends only on
    (seed, phase_id, j, B), so encoder and decoder always agree."""
    if count == 0 or B == 0:
        return np.zeros((count, B), dtype=np.uint8)
    packed = _coefficient_bytes(seed, phase_id, count, B)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :B]


def _gf2_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(A @ X) mod 2 for 0/1 matrices; float32 keeps the products exact
    (inner dimension < 2^24) and routes through BLAS.  A is converted 1024
    rows at a time, which bounds the float copy."""
    Xf = X.astype(np.float32)
    out = np.empty((A.shape[0], X.shape[1]), np.uint8)
    for i in range(0, A.shape[0], 1024):
        prod = A[i : i + 1024].astype(np.float32) @ Xf
        out[i : i + 1024] = prod.astype(np.int64) & 1
    return out


def encode_payloads(blocks, count: int, phase_id: int, seed) -> np.ndarray:
    """The (count, F) payload matrix of ``count`` coded packets over the
    (B, F) source blocks; row j is packet j."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    B, F = blocks.shape if blocks.ndim == 2 else (0, 0)
    if B == 0:
        return np.zeros((count, blocks.shape[1] if blocks.ndim == 2 else 0), np.uint8)
    A = coefficient_rows(seed, phase_id, count, B)
    return _gf2_matmul(A, blocks)


# -- batched bit-packed GF(2) elimination ------------------------------------

_FIRST_ATTEMPT_EXTRA = 64  # the first solve uses the earliest u + 64 received packets
_KERNEL_WORDS = 1 << 18  # packed words one elimination pass holds (2 MiB)


def _pack_system(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pack one system's (m, F) right-hand side and (m, u) rows into
    (m, ceil((F+u)/64)) uint64 words.  Bit c of a row is column c of
    [rhs | rows], at word c//64, position c%64 (little-endian hosts), so the
    right-hand side sits in the same columns whatever u is."""
    bits = np.concatenate([rhs, rows], axis=1)
    m, c = bits.shape
    pad = (-c) % 64
    if pad:
        bits = np.concatenate([bits, np.zeros((m, pad), np.uint8)], axis=1)
    packed = np.packbits(bits, axis=1, bitorder="little")
    # a column-gathered input packs Fortran-ordered; the word view needs C order
    return np.ascontiguousarray(packed).view(np.uint64)


def _eliminate(systems) -> list:
    """Solve packed systems, given as (words, u, F) from ``_pack_system``.
    Returns (x, deficit) per system, as ``solve_gf2`` does.

    Systems of one F are sorted by u and eliminated together in chunks of at
    most ``_KERNEL_WORDS`` padded words each."""
    out = [None] * len(systems)
    order = sorted(range(len(systems)), key=lambda i: (systems[i][2], -systems[i][1]))
    start = 0
    while start < len(order):
        _, u, F = systems[order[start]]  # the chunk's widest system
        width = (F + u + 63) // 64
        stop, rows = start + 1, len(systems[order[start]][0])
        while stop < len(order):
            words, _, f = systems[order[stop]]
            grown = max(rows, len(words))
            if f != F or (stop - start + 1) * max(grown, 1) * width > _KERNEL_WORDS:
                break
            stop, rows = stop + 1, grown
        chunk = order[start:stop]
        solved = _m4ri([systems[i][0] for i in chunk], [systems[i][1] for i in chunk], F)
        for i, result in zip(chunk, solved):
            out[i] = result
        start = stop
    return out


def _m4ri(packed: list, us: list, F: int) -> list:
    """Gauss-Jordan elimination of S packed systems at once with the Method
    of Four Russians (Albrecht, Bard and Hart, ACM TOMS 36(2), 2010).

    The systems sit zero-padded in one (S, rows, words) array.  For each
    8-column strip, a pivot search vectorised over the systems finds up to
    eight pivot rows per system, those are reduced against each other, and
    one 256-entry table per system of their XOR combinations clears the
    strip from every other row with a single gather.  Columns a system does
    not have (u < the largest u) are zero and never pivot.
    """
    S, U = len(packed), max(us)
    W = (F + U + 63) // 64
    R = max(1, max(len(p) for p in packed))
    P = np.zeros((S, R, W), np.uint64)
    for s, p in enumerate(packed):
        P[s, : len(p), : p.shape[1]] = p
    P8 = P.view(np.uint8)  # byte b of a row holds columns 8b..8b+7
    free = np.full((S, R), 0xFF, np.uint8)  # zero on rows that already pivot
    pivot = np.full((S, U), -1, np.int64)  # pivot row of each unknown column
    ar = np.arange(S)
    base = (ar * 256)[:, None]
    wr = (F + 63) // 64  # words holding right-hand-side bits
    for b in range(F // 8, (F + U + 7) // 8):
        strip = P8[:, :, b].copy()  # every row's strip bits before this strip
        cand = strip & free  # ... and of the rows that may still pivot
        G = np.zeros((S, 8, W), np.uint64)  # the strip's pivot rows
        found = []
        for j in range(max(8 * b, F) - 8 * b, min(8 * b + 8, F + U) - 8 * b):
            hit = (cand & np.uint8(1 << j)) != 0
            r = hit.argmax(axis=1)
            has = hit[ar, r]
            if not has.any():
                continue
            # XOR the pivot's strip bits into every candidate with bit j set:
            # clears bit j there and empties the pivot's own entry
            cand ^= hit * (cand[ar, r] * has)[:, None]
            ss, rs = ar[has], r[has]
            free[ss, rs] = 0
            pivot[ss, 8 * b + j - F] = rs
            G[ss, j] = P[ss, rs]
            found.append((j, ss, rs))
        if not found:
            continue
        for j, _, _ in found:  # reduce the pivot rows against each other
            w, sh = divmod(8 * b + j, 64)
            hit = (G[:, :, w] >> np.uint64(sh)) & np.uint64(1)
            hit[:, j] = 0
            G ^= (np.uint64(0) - hit)[:, :, None] & G[:, j, None, :]
        # words between the right-hand side and the strip hold only earlier
        # columns; a pivot row is zero in every earlier pivot column
        lo = max(wr, b // 8)
        cols = np.concatenate([G[:, :, :wr], G[:, :, lo:]], axis=2) if lo > wr else G
        table = np.zeros((S, 256, cols.shape[2]), np.uint64)
        for j in range(8):
            np.bitwise_xor(table[:, : 1 << j], cols[:, j, None], out=table[:, 1 << j : 2 << j])
        update = table.reshape(S * 256, -1).take((base + strip).ravel(), axis=0)
        update = update.reshape(S, R, -1)
        if lo > wr:
            P[:, :, :wr] ^= update[:, :, :wr]
            P[:, :, lo:] ^= update[:, :, wr:]
        else:
            P ^= update
        for j, ss, rs in found:  # the update cleared the pivot rows themselves
            P[ss, rs] = G[ss, j]
    out = []
    for s, u in enumerate(us):
        rows = pivot[s, :u]
        rank = int(np.count_nonzero(rows >= 0))
        if rank < u:
            out.append((None, u - rank))
            continue
        rhs = P[s, rows, :wr]
        x = np.unpackbits(rhs.view(np.uint8), axis=1, bitorder="little")[:, :F]
        out.append((np.ascontiguousarray(x), 0))
    return out


def solve_gf2_batch(systems) -> list:
    """Solve rows @ x = rhs over GF(2) for each (rows, rhs) pair of
    ``systems``: (m, u) rows and (m, F) rhs, any mix of m, u and F.

    Returns (x, deficit) per system: x is (u, F) when the column rank is
    full, else None with the rank deficit.
    """
    packed = []
    for rows, rhs in systems:
        rows = np.asarray(rows, dtype=np.uint8)
        rhs = np.asarray(rhs, dtype=np.uint8)
        packed.append((_pack_system(rows, rhs), rows.shape[1], rhs.shape[1]))
    return _eliminate(packed)


def solve_gf2(rows: np.ndarray, rhs: np.ndarray):
    """Solve rows @ x = rhs over GF(2) for (m, u) rows and (m, F) rhs.

    Returns (x, deficit): x is (u, F) when the column rank is full, else
    None with the rank deficit.
    """
    return solve_gf2_batch([(rows, rhs)])[0]


class Reception(NamedTuple):
    """What one receiver holds of one coded phase."""

    indices: np.ndarray  # received packet indices, distinct, earliest first
    known: np.ndarray  # (B,) bool: blocks the receiver already holds
    values: np.ndarray  # (B, F) bits; the rows of known blocks hold their values


def _systems(group, todo) -> list:
    """Packed systems of the receptions ``todo`` = [(number, packet
    indices to use)] of one phase group; the phase's coefficient rows are
    drawn once for all of them."""
    payloads, B, phase_id, seed, receptions = group
    if not todo:
        return []
    A = _coefficient_bytes(seed, phase_id, max(int(sel.max()) for _, sel in todo) + 1, B)
    out = []
    for ri, sel in todo:
        rec = receptions[ri]
        rows = np.unpackbits(A[sel], axis=1, bitorder="little")[:, :B]
        rhs = payloads[sel]
        if rec.known.any():
            rhs = rhs ^ _gf2_matmul(rows[:, rec.known], rec.values[rec.known])
        unknown = rows[:, ~rec.known]
        out.append((ri, (_pack_system(unknown, rhs), unknown.shape[1], rhs.shape[1])))
    return out


def decode_batch(phases) -> list:
    """Decode every reception of every coded phase in one batched
    elimination; returns one list of ``DecodeResult`` per phase.

    ``phases`` holds (payloads, B, phase_id, seed, receptions) tuples: the
    phase's transmitted (count, F) payloads, row j being packet j, its block
    count, and a sequence of ``Reception``.  Known blocks are eliminated
    before solving.  With u unknown blocks and m received packets, u = 0
    succeeds at once and m < u fails without solving; otherwise the earliest
    u + 64 packets are solved first, and only a rank-deficient system with
    more packets is solved again on all of them.
    """
    results = [[None] * len(group[4]) for group in phases]
    attempts = []  # (phase, reception, packed system)
    for gi, group in enumerate(phases):
        B, receptions = group[1], group[4]
        todo = []
        for ri, rec in enumerate(receptions):
            u, m = B - int(np.count_nonzero(rec.known)), len(rec.indices)
            if u == 0:
                results[gi][ri] = DecodeResult(ok=True, blocks=rec.values.copy(), rank_deficit=0)
            elif m < u:
                results[gi][ri] = DecodeResult(ok=False, blocks=None, rank_deficit=u - m)
            else:
                todo.append((ri, rec.indices[: u + _FIRST_ATTEMPT_EXTRA]))
        attempts += [(gi, ri, system) for ri, system in _systems(group, todo)]
    for rerun in (False, True):
        solved = _eliminate([system for _, _, system in attempts])
        retry = {}
        for (gi, ri, system), (x, deficit) in zip(attempts, solved):
            rec = phases[gi][4][ri]
            if x is None and not rerun and len(rec.indices) > len(system[0]):
                retry.setdefault(gi, []).append((ri, rec.indices))
            elif x is None:
                results[gi][ri] = DecodeResult(ok=False, blocks=None, rank_deficit=deficit)
            else:
                blocks = rec.values.copy()
                blocks[~rec.known] = x
                results[gi][ri] = DecodeResult(ok=True, blocks=blocks, rank_deficit=0)
        # rebuild the full rows only for the systems that need them
        attempts = [
            (gi, ri, system)
            for gi, todo in retry.items()
            for ri, system in _systems(phases[gi], todo)
        ]
    return results


def decode_arrays(
    indices, payloads, B: int, phase_id: int, seed, known: dict | None = None
) -> DecodeResult:
    """Decode one receiver from its received packet indices and the payload
    rows received with them (``decode_batch`` with a single reception).

    ``known`` maps block index -> (F,) bit value; those columns are
    eliminated before solving.
    """
    known = known or {}
    indices = np.asarray(indices, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.uint8)
    F = payloads.shape[1] if payloads.ndim == 2 and payloads.shape[1] else 0
    if F == 0 and known:
        F = len(next(iter(known.values())))
    mask = np.zeros(B, dtype=bool)
    values = np.zeros((B, F), dtype=np.uint8)
    for i, v in known.items():
        mask[i] = True
        values[i] = v
    sent = np.zeros((int(indices.max()) + 1 if len(indices) else 0, F), dtype=np.uint8)
    sent[indices] = payloads.reshape(len(indices), F)
    reception = Reception(indices, mask, values)
    return decode_batch([(sent, B, phase_id, seed, [reception])])[0][0]
